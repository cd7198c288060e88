package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nectar/internal/bench"
	"nectar/internal/obs"
)

// TestTraceGolden pins what nectar-obs trace prints, byte for byte, for
// each transport at the default size and at 1024 bytes, with and without
// -q. Only an intended change rewrites a golden, with the output of
// `go run ./cmd/nectar-obs trace <args>`.
func TestTraceGolden(t *testing.T) {
	for _, proto := range []string{"datagram", "rmp", "rrp"} {
		for _, size := range []string{"", "1024"} {
			for _, quiet := range []bool{false, true} {
				name, args := "trace_"+proto, []string{"trace", "-proto", proto}
				if size != "" {
					name, args = name+"_"+size, append(args, "-size", size)
				}
				if quiet {
					name, args = name+"_q", append(args, "-q")
				}
				t.Run(name, func(t *testing.T) {
					var stdout, stderr bytes.Buffer
					if code := run(args, &stdout, &stderr); code != 0 {
						t.Fatalf("%v: exit %d; stderr:\n%s", args, code, stderr.String())
					}
					path := filepath.Join("testdata", name+".golden")
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(stdout.Bytes(), want) {
						t.Errorf("%v differs from %s:\ngot:\n%s\nwant:\n%s", args, path, stdout.String(), want)
					}
				})
			}
		}
	}
}

// TestSubcommands drives each subcommand through run, checking its exit
// status and what it prints.
func TestSubcommands(t *testing.T) {
	noProfile := filepath.Join(t.TempDir(), "noprof.json")
	if err := os.WriteFile(noProfile, []byte(`{"nodes": 8}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fig6, err := bench.Fig6(nil)
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name  string
		args  []string
		exit  int
		check func(t *testing.T, stdout string)
	}{
		{name: "prof check of the committed profile",
			args: []string{"prof", "-check", "../../BENCH_pdes.json", "-min", "0.95"}, exit: 0,
			check: func(t *testing.T, stdout string) {
				if !strings.Contains(stdout, "profile ok") {
					t.Errorf("stdout = %q, want a profile ok line", stdout)
				}
			}},
		{name: "prof check without a profile section",
			args: []string{"prof", "-check", noProfile}, exit: 1},
		{name: "prof -in with -check",
			args: []string{"prof", "-in", "../../BENCH_pdes.json", "-check", "../../BENCH_pdes.json"}, exit: 2},
		{name: "stats json carries the forced RMP timeout",
			args: []string{"stats", "-format", "json"}, exit: 0,
			check: func(t *testing.T, stdout string) {
				var snap obs.Snapshot
				if err := json.Unmarshal([]byte(stdout), &snap); err != nil {
					t.Fatalf("stats output does not parse: %v", err)
				}
				if got := snap.Sum(obs.LayerRMP, "timeouts"); got != 1 {
					t.Errorf("rmp timeouts = %d, want 1", got)
				}
			}},
		{name: "trace prints bench.Fig6's breakdown",
			args: []string{"trace", "-proto", "datagram", "-q"}, exit: 0,
			check: func(t *testing.T, stdout string) {
				if !strings.Contains(stdout, fig6.Format()) {
					t.Errorf("trace breakdown differs from nectar-bench fig6:\ntrace:\n%s\nfig6:\n%s", stdout, fig6.Format())
				}
			}},
		{name: "unknown subcommand", args: []string{"replay"}, exit: 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.exit {
				t.Fatalf("exit %d, want %d; stderr:\n%s", got, tc.exit, stderr.String())
			}
			if tc.check != nil {
				tc.check(t, stdout.String())
			}
		})
	}
}
