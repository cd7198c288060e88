// Package dfpos exercises determinism's failure-path rule: os.Exit, global-logger
// writes, and ad-hoc formatted panics in a deterministic package, plus
// the sanctioned forms (bare constant panics, fmt.Errorf into an error
// return, //nectar:diag-helper surfaces) and directive placement.
package dfpos

import (
	"fmt"
	"log"
	"os"
)

func exits(bad bool) {
	if bad {
		os.Exit(2) // want `os\.Exit in a deterministic package kills the run without a replayable diagnostic`
	}
}

func logs(n int) {
	log.Printf("bad state: %d", n) // want `package log writes wall-clock-stamped output through a global logger`
	log.Fatal("dead")              // want `package log writes wall-clock-stamped output through a global logger`
}

func adHocPanics(n int) {
	if n < 0 {
		panic(fmt.Sprintf("negative: %d", n)) // want `ad-hoc panic\(fmt\.Sprintf\(\.\.\.\)\) drifts in format between sites`
	}
	if n > 10 {
		panic(fmt.Errorf("too big: %d", n)) // want `ad-hoc panic\(fmt\.Errorf\(\.\.\.\)\) drifts in format between sites`
	}
}

func sanctioned(n int) error {
	if n < 0 {
		panic("dfpos: negative input") // ok: constant panics are deterministic already
	}
	if n > 10 {
		return fmt.Errorf("too big: %d", n) // ok: error returns are the caller's problem
	}
	return nil
}

// failf is this fixture's sanctioned formatted-panic surface.
//
//nectar:diag-helper fixture: the one sanctioned formatted-panic surface
func failf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...)) // ok: inside the declared helper
}

func misplacedHelper(n int) {
	/* want `//nectar:diag-helper must be part of a function declaration's doc comment` */ //nectar:diag-helper not a doc comment
	panic(fmt.Sprintf("still flagged: %d", n))                                             // want `ad-hoc panic\(fmt\.Sprintf\(\.\.\.\)\) drifts in format between sites`
}
