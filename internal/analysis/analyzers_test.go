package analysis_test

import (
	"testing"

	"nectar/internal/analysis"
	"nectar/internal/analysis/analysistest"
)

// Each analyzer is exercised against fixtures with at least one failing
// (// want) and one passing case; the wtpos fixtures also pin down the
// //nectar: directive grammar (misspelled verb, missing reason, directive
// on the wrong line or in the wrong place).
//
// The determinism analyzer bundles five rules; each rule's fixtures keep a
// test of their own, all run through analysis.Determinism. The fixture
// packages are checked one at a time, so a want in one package never
// needs another rule's fixtures to be satisfied.

func TestWalltime(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Determinism,
		"nectar/internal/sim/wtpos", // wall clock + directive hygiene and placement
		"other/clock",               // non-deterministic package: silent
	)
}

func TestSeededrand(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Determinism,
		"nectar/internal/proto/srpos", // global math/rand + injected-Rand negatives
		"other/rnd",                   // non-deterministic package: silent
	)
}

func TestRawgo(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Determinism,
		// One package holding an approved file (pdes.go — silent),
		// unapproved files (spawn.go, and proc.go, whose coroutine
		// Procs need no goroutine — diagnosed), and a test file
		// (exempt).
		"rawgotest/internal/sim",
	)
}

func TestDetrange(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Determinism,
		"detrangetest", // emission inside a range over a map
	)
}

func TestDetfail(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Determinism,
		"nectar/internal/sim/dfpos", // os.Exit, log, ad-hoc panics, helpers
		"other/failures",            // non-deterministic package: silent
	)
}

func TestHotpath(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Hotpath,
		"hotpathtest", // annotated roots
	)
}

// TestHotprop covers the hotpath analyzer's propagation: everything the
// roots reach, reported with call chains.
func TestHotprop(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Hotpath,
		"hotproptest",
	)
}

func TestShardsafe(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Shardsafe,
		"shardsafetest",
	)
}

func TestCostmodel(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Costmodel,
		"nectar/internal/proto/cmpos", // uncharged chains, charges, waivers, placement
		"other/costfree",              // non-deterministic package: silent
	)
}

func TestObsgate(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Obsgate,
		"nectar/internal/hw/ogpos", // guard spellings, taint escapes, closures, metrics
		"other/tracearg",           // non-deterministic package: silent
	)
}

func TestPoollife(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Poollife,
		"nectar/internal/hw/pltest", // leaks, transfers, double-release, waivers, parameter naming
	)
	// Non-deterministic package: poollife is silent, while determinism's
	// directive pass still reports the misplaced takes-ownership.
	analysistest.Run(t, analysistest.TestData(), together(analysis.Poollife, analysis.Determinism),
		"other/pooluse",
	)
}

// together runs analyzers as one, for a fixture whose wants span them.
func together(analyzers ...*analysis.Analyzer) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "together",
		Run: func(pass *analysis.Pass) (any, error) {
			for _, a := range analyzers {
				if _, err := a.Run(pass); err != nil {
					return nil, err
				}
			}
			return nil, nil
		},
	}
}

func TestUnitsafe(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Unitsafe,
		"nectar/internal/sim/uspos", // deterministic package: positives + sanctioned forms
		"other/units",               // non-deterministic package: silent
	)
}

func TestDeadstate(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Deadstate,
		"deadstatetest",                // unread fields, unused identifiers, exemptions, test-only uses
		"nectar/internal/deadexp/solo", // exported half: silent in the per-package view
	)
}

// TestDeadstateExported runs the exported half over a two-package
// program, with determinism's directive pass for the bare waiver.
func TestDeadstateExported(t *testing.T) {
	analysistest.RunProgram(t, analysistest.TestData(), together(analysis.Deadstate, analysis.Determinism),
		"nectar/internal/deadexp/lib", // unused, test-only, exempt and waived names
		"nectar/cmd/deadexp",          // a non-test user outside nectar/internal/
	)
}
