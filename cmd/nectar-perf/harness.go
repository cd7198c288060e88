package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
)

// warmups is how many units a unit process runs untimed before measuring,
// so lazy initialization and the allocator's caches settle first. They
// repeat the first timed units' inputs, which doubles as a determinism
// check.
const warmups = 1

// passResult is a measured pass over a workload's units, in unit order,
// with the retention measured around them. A unit process prints its
// share as JSON; the parent run merges the shares.
type passResult struct {
	Units      []unitStats `json:"units"`
	RetainedB  float64     `json:"retained_bytes"` // post-GC heap growth
	Goroutines int         `json:"goroutines"`     // goroutines left alive
	Speed      float64     `json:"speed"`          // the host's speed while the units ran, see calib.go
	Spans      []spanRec   `json:"spans,omitempty"`
	executions int         // unit executions behind RetainedB and Goroutines
	speeds     []float64   // every unit process's Speed
}

// merge adds a unit process's retention and spans to r; its units are
// merged by fold.
func (r *passResult) merge(o *passResult) {
	if o.Speed > 0 {
		r.speeds = append(r.speeds, o.Speed)
	}
	r.RetainedB += o.RetainedB
	r.Goroutines += o.Goroutines
	r.executions += len(o.Units)
	base := len(r.Spans)
	for _, s := range o.Spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		r.Spans = append(r.Spans, s)
	}
}

// fold adds another execution of the same unit to u: the fastest run
// phase, every set-up time, and a failure when the execution failed or
// produced other results. Everything else stays the first execution's.
func fold(u *unitStats, o unitStats) {
	switch {
	case u.Err != "":
	case o.Err != "":
		u.Err = o.Err
	case o.Results != u.Results:
		u.Err = fmt.Sprintf("results digest %s differs from another execution's %s", o.Results, u.Results)
	}
	u.RunNS = min(u.RunNS, o.RunNS)
	u.setups = append(u.setups, o.SetupNS)
}

// failures counts the failed units and returns the first few messages.
func (r *passResult) failures() (n int, msgs []string) {
	for _, u := range r.Units {
		if u.Err == "" {
			continue
		}
		n++
		if len(msgs) < 5 {
			msgs = append(msgs, fmt.Sprintf("unit %d: %s", u.Idx, u.Err))
		}
	}
	return n, msgs
}

// runUnit runs one unit of w. A panic in the workload or the simulator
// fails the unit instead of the process.
func runUnit(w *workload, fn func(*unit), seed uint64, idx int, snapshot bool, tr *tracer) (u *unit) {
	u = newUnit(seed, w, idx, snapshot, tr)
	defer func() {
		if r := recover(); r != nil {
			u.failf("panic: %v", r)
		}
		if u.err != nil {
			u.Err = u.err.Error()
		}
	}()
	if tr != nil {
		defer tr.unitSpan(idx)()
	}
	fn(u)
	if u.err == nil && u.Results == "" {
		u.failf("unit finished without a check")
	}
	return u
}

// measure runs units [lo, hi) of w in this process, after the warm-up
// units, and checks each one: its own invariants, the warm-up run of the
// same inputs and, for sharded workloads in executions that take a
// snapshot, an untimed sequential rerun. The metrics snapshot is taken
// only when snapshot is set: in a FatTree(16) unit it costs several times
// the set-up and run phases together, so a run takes it in one pass.
func measure(w *workload, seed uint64, lo, hi int, snapshot bool, tr *tracer) (*passResult, error) {
	warm := map[int]*unit{}
	for i := lo; i < min(lo+warmups, hi); i++ {
		warm[i] = runUnit(w, w.unit, seed, i, snapshot, nil)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	g0 := runtime.NumGoroutine()
	if tr != nil {
		if err := tr.start(); err != nil {
			return nil, fmt.Errorf("start tracing: %w", err)
		}
	}

	// Every unit starts from a collected heap and runs with the collector
	// paused. Otherwise a collection lands in whichever phase happens to
	// cross the heap trigger, and one unit in a few runs several times
	// slower than its neighbours. The collector's cost is reported by
	// allocs_per_msg, alloc_bytes_per_msg and the traced go.gc share.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	res := &passResult{}
	var ref []int64
	for i := lo; i < hi; i++ {
		runtime.GC()
		ref = append(ref, refKernel())
		u := runUnit(w, w.unit, seed, i, snapshot, tr)
		switch wu := warm[i]; {
		case u.err != nil:
		case wu != nil && (wu.Results != u.Results || wu.Digest != u.Digest):
			u.failf("digest %s/%s differs from the warm-up run's %s/%s", u.Results, u.Digest, wu.Results, wu.Digest)
		case w.rerun != nil && snapshot && i%rerunEvery == 0:
			if seq := runUnit(w, w.rerun, seed, i, snapshot, nil); seq.err != nil {
				u.failf("sequential rerun: %v", seq.err)
			} else if seq.Digest != u.Digest {
				u.failf("digest %s differs from the sequential rerun's %s", u.Digest, seq.Digest)
			}
		}
		if u.err != nil {
			u.Err = u.err.Error()
		}
		res.Units = append(res.Units, u.unitStats)
	}

	if tr != nil {
		if err := tr.stop(); err != nil {
			return nil, fmt.Errorf("stop tracing: %w", err)
		}
		res.Spans = tr.spans
	}
	res.Speed = refNominalNS / medianNS(ref)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.RetainedB = float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
	res.Goroutines = runtime.NumGoroutine() - g0
	return res, nil
}

// passes is how many times a run executes each unit. The run-phase
// metrics take each unit's fastest execution and setup_s each unit's
// median set-up, in reference time (calib.go). Single executions on a
// shared VM vary by ±20% from one to the next; a unit's executions are
// seconds apart, so one slow execution rarely decides its time. More
// passes did not narrow the spread between runs further. Every execution
// must reproduce the same results digest.
const passes = 3

// measureAll runs n units of w, passes times each, in separate passes
// over child processes of w.perProcess units, one process at a time.
//
// An abandoned cluster is never freed (see README), so a process that ran
// every unit would end with hundreds of megabytes live and every
// collection would mark all of it; bounded processes keep the collector's
// work, and memory, the same for every unit of every run.
//
// The first pass takes the metrics snapshots. A traced run makes that
// pass alone, with each process profiling its units (see profilePath):
// its counts are exact and its shares need no repetition.
func measureAll(w *workload, seed uint64, n int, traced bool) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	np := passes
	if traced {
		np = 1
	}
	all := &passResult{Units: make([]unitStats, n)}
	for pass := 0; pass < np; pass++ {
		for lo := 0; lo < n; lo += w.perProcess {
			hi := min(lo+w.perProcess, n)
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-units", fmt.Sprintf("%d:%d", lo, hi), "-pass", strconv.Itoa(pass)}
			if traced {
				args = append(args, "-trace", "1")
			}
			var out bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			seg := &passResult{}
			if err := cmd.Run(); err != nil {
				var crashed *exec.ExitError
				if !errors.As(err, &crashed) {
					return nil, err
				}
				// The process died outside any unit's recovery (a
				// runtime fatal error): every unit it owned fails.
				for i := lo; i < hi; i++ {
					seg.Units = append(seg.Units, unitStats{Idx: i, Err: "unit process failed: " + err.Error()})
				}
			} else if err := json.Unmarshal(out.Bytes(), seg); err != nil {
				return nil, fmt.Errorf("units %d:%d: %w", lo, hi, err)
			}
			seg.toReference()
			all.merge(seg)
			for _, u := range seg.Units {
				if pass == 0 {
					u.setups = []int64{u.SetupNS}
					u.firstRunNS = u.RunNS
					all.Units[u.Idx] = u
				} else {
					fold(&all.Units[u.Idx], u)
				}
			}
		}
	}
	return all, nil
}

// toReference converts a unit process's phase times from wall time to
// reference time (see calib.go).
func (r *passResult) toReference() {
	scale := func(ns *int64) { *ns = int64(float64(*ns) * r.Speed) }
	for i := range r.Units {
		scale(&r.Units[i].SetupNS)
		scale(&r.Units[i].RunNS)
		scale(&r.Units[i].SnapNS)
	}
}

// traceRoot holds the traced runs' profiles and spans, one directory per
// workload.
var traceRoot = filepath.Join(".bench_build", "trace")

// profilePath is where the unit process for units lo.. of a traced run
// writes its CPU profile.
func profilePath(workload string, lo int) string {
	return filepath.Join(traceRoot, workload, fmt.Sprintf("units-%d.pprof", lo))
}

// profilePaths lists the profiles measureAll's processes wrote.
func profilePaths(w *workload, n int) []string {
	var paths []string
	for lo := 0; lo < n; lo += w.perProcess {
		paths = append(paths, profilePath(w.name, lo))
	}
	return paths
}

// virtualDigest is the rolling hash over every unit's digest: equal across
// runs of one seed exactly when every virtual-time result and metrics
// snapshot is.
func (r *passResult) virtualDigest() string {
	h := sha256.New()
	for _, u := range r.Units {
		d := u.Digest
		if u.Err != "" {
			d = "failed"
		}
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// totals sums the passed units' measurements.
type totals struct {
	units                            int
	msgs, payloadBytes, checksummed  float64
	runNS, firstRunNS, setupNS       float64
	runMallocs, runBytes, setupBytes float64
	runMS, snapMS                    []float64
	counts                           counts
}

func (r *passResult) totals() totals {
	var t totals
	for _, u := range r.Units {
		if u.Err != "" {
			continue
		}
		t.units++
		t.msgs += float64(u.Msgs)
		t.payloadBytes += float64(u.PayloadBytes)
		t.checksummed += float64(u.Checksummed)
		t.runNS += float64(u.RunNS)
		t.firstRunNS += float64(u.firstRunNS)
		t.setupNS += medianNS(u.setups)
		t.runMallocs += float64(u.RunMallocs)
		t.runBytes += float64(u.RunBytes)
		t.setupBytes += float64(u.SetupBytes)
		t.runMS = append(t.runMS, float64(u.RunNS)/1e6)
		t.snapMS = append(t.snapMS, float64(u.SnapNS)/1e6)
		t.counts.add(u.Counts)
	}
	return t
}

// medianNS is the median of a unit's set-up times.
func medianNS(ns []int64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the end-to-end metrics of a measured pass.
func (r *passResult) endToEnd() map[string]float64 {
	t := r.totals()
	return map[string]float64{
		"msgs_per_s":           ratio(t.msgs, t.runNS/1e9),
		"run_ms_p50":           quantile(t.runMS, 0.5),
		"run_ms_p90":           quantile(t.runMS, 0.9),
		"setup_s":              t.setupNS / 1e9,
		"allocs_per_msg":       ratio(t.runMallocs, t.msgs),
		"alloc_bytes_per_msg":  ratio(t.runBytes, t.msgs),
		"setup_alloc_kb":       ratio(t.setupBytes/1024, float64(t.units)),
		"retained_kb_per_unit": ratio(r.RetainedB/1024, float64(r.executions)),
	}
}
