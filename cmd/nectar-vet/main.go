// Command nectar-vet runs the repo's determinism and hot-path analyzers
// (internal/analysis) over Go packages.
//
// It loads the whole module into one types universe, so the
// interprocedural analyzers see the full call graph:
//
//	nectar-vet ./...
//	nectar-vet -json -timing ./...
//	nectar-vet -waivers ./...
//
// With -json, findings go to stdout as one JSON object per line
// ({"pos","analyzer","message","chain"}); without it they go to stderr
// as file:line:col: analyzer: message. The chain field is populated by
// hotpath with the call path from the //nectar:hotpath root to the
// offending function. -timing appends the wall-clock profile as a last
// JSON line; -waivers prints the //nectar: waiver inventory instead.
//
// Exit status: 0 clean, 1 driver error, 2 diagnostics reported (with
// -waivers: a waiver outside the packages its verb allows).
package main

import (
	"os"

	"nectar/internal/analysis"
)

func main() {
	os.Exit(analysis.Main(os.Args[1:]))
}
