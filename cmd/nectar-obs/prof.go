package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"nectar/internal/bench"
	"nectar/internal/prof"
)

// runProf renders or validates the wall-clock profile that the sharded
// pdes experiment collects (nectar-bench -prof pdes): the scheduler phase
// breakdown (choose / barrier / drain, plus shard 0's compute, which the
// scheduler runs itself), per-shard utilization with the workers'
// spin-vs-park wait split, window-size and lookahead histograms, and a
// per-shard busy timeline — the Figure-6-style view of where real time
// went.
//
// -check fails when the profile is missing or breaks its internal
// consistency rules (phase times must tile the wall clock to at least
// -min, event counts must reconcile); CI's profile-smoke job runs it
// against the artifact nectar-bench -prof wrote.
func runProf(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("prof", flag.ContinueOnError)
	topn := fs.Int("topn", 0, "limit per-shard breakdown rows to the N busiest shards (0 = all)")
	asJSON := fs.Bool("json", false, "emit the profile report as JSON instead of text")
	in := fs.String("in", "", "render the profile section of a saved BENCH_pdes.json")
	check := fs.String("check", "", "validate the profile section of a saved BENCH_pdes.json")
	minFrac := fs.Float64("min", 0.95, "minimum accounted wall-clock fraction -check accepts")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if (*in == "") == (*check == "") {
		return fmt.Errorf("%w: pass exactly one of -in and -check", errUsage)
	}

	if *check != "" {
		r, err := loadProfile(*check)
		if err != nil {
			return err
		}
		if err := r.Check(*minFrac); err != nil {
			return fmt.Errorf("%s: %w", *check, err)
		}
		fmt.Fprintf(stdout, "%s: profile ok: %.1f%% of %.3fs wall accounted across %d shards, %d windows\n",
			*check, 100*r.AccountedFraction, r.WallSeconds, r.Shards, r.Windows)
		return nil
	}
	r, err := loadProfile(*in)
	if err != nil {
		return err
	}
	if *asJSON {
		stdout.Write(r.JSON())
		fmt.Fprintln(stdout)
		return nil
	}
	fmt.Fprint(stdout, r.Format(*topn))
	return nil
}

// loadProfile reads a BENCH_pdes.json report and returns its profile
// section.
func loadProfile(path string) (*prof.Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep bench.PdesReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Profile == nil {
		return nil, fmt.Errorf("%s has no profile section (run nectar-bench -prof pdes)", path)
	}
	return rep.Profile, nil
}
