// Command nectar-perf is the simulator's wall-clock benchmark. It builds
// Nectar clusters through the public nectar API, drives five closed-loop
// workloads (rtt, stream, lossy, pdes, fabric) and reports what a
// simulated message costs in host time and allocations, end to end with
// tracing off, or layer by layer in a separate traced run.
//
// Usage:
//
//	nectar-perf [-workload all] [-seed 1] [-seconds 20] [-trace 0|1] [-json runs.jsonl]
//	nectar-perf -compare a.jsonl b.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero when
// any unit fails its checks. See README.md for the workloads, metrics and
// layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// runSeconds is the run length BENCHMARK.json names; perf_test.go keeps
// the two equal, so a run with no flags does the recorded work.
const runSeconds = 20

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "input seed: unit i's inputs derive from (seed, workload, i)")
	seconds := flag.Int("seconds", runSeconds, "run length; sets how many units run (see README)")
	trace := flag.String("trace", "0", "1 follows the end-to-end run with the traced per-layer run, which writes its profiles and spans.jsonl under .bench_build/trace/<workload>")
	jsonOut := flag.String("json", "", "append one JSON record per run to this file, for -compare")
	compare := flag.Bool("compare", false, "compare two -json files against BENCHMARK.json's bounds: nectar-perf -compare a.jsonl b.jsonl")
	units := flag.String("units", "", "lo:hi runs only units lo..hi-1 in this process and prints their raw records as JSON (what a run's unit processes do)")
	pass := flag.Int("pass", 0, "with -units: the pass of the run the units belong to")
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	ok, err := dispatch(*workload, *seed, *seconds, *trace, *jsonOut, *compare, *units, *pass)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nectar-perf:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func dispatch(workload string, seed uint64, seconds int, trace, jsonOut string, compare bool, units string, pass int) (bool, error) {
	if compare {
		return runCompare(flag.Args())
	}
	if seconds < 1 {
		return false, fmt.Errorf("-seconds must be at least 1")
	}
	if trace != "0" && trace != "1" {
		return false, fmt.Errorf("-trace %q: want 0 or 1", trace)
	}
	traced := trace == "1"
	if workload == "all" && units == "" {
		ok := true
		for _, w := range workloads {
			wok, err := runWorkload(w, seed, seconds, traced, jsonOut)
			if err != nil {
				return false, err
			}
			ok = ok && wok
		}
		return ok, nil
	}
	w, found := workloadByName(workload)
	if !found {
		return false, fmt.Errorf("unknown workload %q; want one of %s or all", workload, workloadNames())
	}
	if units != "" {
		return true, runUnits(w, seed, units, pass, traced)
	}
	return runWorkload(w, seed, seconds, traced, jsonOut)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func runCompare(args []string) (bool, error) {
	if len(args) != 2 {
		return false, fmt.Errorf("-compare takes two result files, got %d", len(args))
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	a, err := readRecords(args[0])
	if err != nil {
		return false, err
	}
	b, err := readRecords(args[1])
	if err != nil {
		return false, err
	}
	return compareRuns(os.Stdout, bf, a, b), nil
}

// runUnits is a unit process: it measures units lo..hi-1 for one pass of
// a run and prints their records for the parent run.
func runUnits(w *workload, seed uint64, span string, pass int, traced bool) error {
	var lo, hi int
	if _, err := fmt.Sscanf(span, "%d:%d", &lo, &hi); err != nil || lo < 0 || hi <= lo {
		return fmt.Errorf("-units %q: want lo:hi with 0 <= lo < hi", span)
	}
	var tr *tracer
	if traced {
		tr = newTracer(w.name, profilePath(w.name, lo))
	}
	res, err := measure(w, seed, lo, hi, pass == 0, tr)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runWorkload measures w end to end with tracing off and prints the
// report. When traced it then runs the same units again under the CPU
// profiler and prints the per-layer report, whose result line comes last.
func runWorkload(w *workload, seed uint64, seconds int, traced bool, jsonOut string) (bool, error) {
	n := w.unitCount(seconds)
	res, err := measureAll(w, seed, n, false)
	if err != nil {
		return false, err
	}
	e2e := res.endToEnd()
	r := newReport(w, seed, false, res, endToEndMetrics, e2e)
	if err := r.finish(jsonOut); err != nil {
		return false, err
	}
	if !traced {
		return r.Failed == 0, nil
	}

	tres, err := measureAll(w, seed, n, true)
	if err != nil {
		return false, err
	}
	spansPath := filepath.Join(traceRoot, w.name, "spans.jsonl")
	if err := writeSpans(spansPath, tres.Spans); err != nil {
		return false, err
	}
	shares, samples, err := profileShares(profilePaths(w, n))
	if err != nil {
		return false, err
	}
	m := tres.layerCounts()
	for k, v := range shares {
		m[k+".self_pct"] = v
	}
	for k, v := range phaseShares(tres.Spans) {
		m[k] = v
	}
	for k, v := range unitCosts(refSpeed(9)) {
		m[k] = v
	}
	t := tres.totals()
	measuredNS := ratio(1e9, e2e["msgs_per_s"])
	m["sim.ns_per_event"] = ratio(measuredNS, m["sim.events_per_msg"])
	// The profiler slows the reference kernel as much as the units, so
	// reference time hides it; the overhead is compared in wall time, and
	// against the untraced run's first pass, which like the traced pass
	// times each unit once.
	ut := res.totals()
	wallRate := ratio(ut.msgs, ut.firstRunNS/1e9) * r.RefSpeed
	tracedWallRate := ratio(t.msgs, t.runNS/1e9) * quantile(tres.speeds, 0.5)
	m["trace.overhead_pct"] = 100 * ratio(wallRate-tracedWallRate, wallRate)
	m["ledger.predicted_ns_per_msg"] = m["sim.events_per_msg"]*m["unit.sim.dispatch_ns"] +
		m["threads.ctxsw_per_msg"]*m["unit.threads.switch_ns"] +
		m["mailbox.ops_per_msg"]*m["unit.mailbox.put_get_ns"]/2 +
		ratio(t.checksummed, t.msgs)*m["unit.wire.sum_8k_ns"]/8192
	m["ledger.accounted_fraction"] = ratio(m["ledger.predicted_ns_per_msg"], measuredNS)

	tr := newReport(w, seed, true, tres, perLayerMetrics(), m)
	tr.notes = append(tr.notes, fmt.Sprintf("%d CPU samples inside unit phases; profiles and spans under %s", samples, filepath.Join(traceRoot, w.name)))
	if err := tr.finish(jsonOut); err != nil {
		return false, err
	}
	return r.Failed == 0 && tr.Failed == 0, nil
}
