package analysis_test

import (
	"encoding/json"
	"go/token"
	"testing"

	"nectar/internal/analysis"
)

// TestJSONLine pins the wire shape of -json output: one object per
// line with pos/analyzer/message, chain present only when a call chain
// was attached (hotpath), and positions rendered file:line:col.
func TestJSONLine(t *testing.T) {
	fset := token.NewFileSet()
	f := fset.AddFile("k.go", -1, 100)
	f.SetLines([]int{0, 10, 20})
	pos := f.Pos(22) // line 3, col 3

	d := analysis.Diagnostic{
		Pos:      pos,
		Analyzer: "hotpath",
		Message:  "helper allocates",
		Chain:    []string{"pkg.Root", "pkg.helper"},
	}
	line := analysis.JSONLine(fset, d)
	var got analysis.JSONDiagnostic
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("JSONLine emitted invalid JSON %q: %v", line, err)
	}
	if got.Pos != "k.go:3:3" {
		t.Errorf("Pos = %q, want %q", got.Pos, "k.go:3:3")
	}
	if got.Analyzer != "hotpath" || got.Message != "helper allocates" {
		t.Errorf("analyzer/message = %q/%q", got.Analyzer, got.Message)
	}
	if len(got.Chain) != 2 || got.Chain[0] != "pkg.Root" || got.Chain[1] != "pkg.helper" {
		t.Errorf("Chain = %q, want the root-first call path", got.Chain)
	}

	// Without a chain the field is omitted entirely, keeping lines
	// minimal for the common analyzers.
	d.Chain = nil
	line = analysis.JSONLine(fset, d)
	var raw map[string]any
	if err := json.Unmarshal([]byte(line), &raw); err != nil {
		t.Fatalf("JSONLine emitted invalid JSON %q: %v", line, err)
	}
	if _, ok := raw["chain"]; ok {
		t.Errorf("chain key present on chainless diagnostic: %s", line)
	}
	if len(raw) != 3 {
		t.Errorf("chainless line has %d keys, want 3 (pos, analyzer, message): %s", len(raw), line)
	}
}
