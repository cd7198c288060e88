package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// tracer records one unit process of the traced run: a CPU profile of its
// timed units, in which work inside a phase carries the pprof labels
// workload and phase, and one in-memory span per unit and per
// setup/run/check phase, which the process hands to the parent run when
// it ends. A goroutine keeps the labels of the phase that started it, so a
// Proc forked during setup is labelled setup while it runs.
type tracer struct {
	workload string
	path     string // the CPU profile
	prof     *os.File
	spans    []spanRec
	unitID   int // the open unit span, parent of phase spans
}

// spanRec is one span of spans.jsonl, timed in Unix nanoseconds. Phase
// spans name their unit's span as parent; a unit span's self time is the
// harness's bookkeeping between its phases.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Unit    int    `json:"unit"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newTracer(workload, path string) *tracer {
	return &tracer{workload: workload, path: path}
}

// start begins profiling.
func (t *tracer) start() error {
	if err := os.MkdirAll(filepath.Dir(t.path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(t.path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.prof = f
	return nil
}

// stop ends profiling and flushes the profile file.
func (t *tracer) stop() error {
	pprof.StopCPUProfile()
	return t.prof.Close()
}

// unitSpan opens unit idx's span and returns the function that closes it.
func (t *tracer) unitSpan(idx int) func() {
	t.unitID = len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: t.unitID, Unit: idx, Name: "unit", StartNS: time.Now().UnixNano()})
	i := len(t.spans) - 1
	return func() { t.spans[i].EndNS = time.Now().UnixNano() }
}

// span records one phase of unit idx.
func (t *tracer) span(idx int, phase string, start, end time.Time) {
	t.spans = append(t.spans, spanRec{
		ID: len(t.spans) + 1, Parent: t.unitID, Unit: idx, Name: phase,
		StartNS: start.UnixNano(), EndNS: end.UnixNano(),
	})
}

// phaseShares is each phase's share of the time inside unit spans, in
// percent; the rest is the harness's own bookkeeping between phases.
func phaseShares(spans []spanRec) map[string]float64 {
	sums := map[string]float64{}
	for _, s := range spans {
		sums[s.Name] += float64(s.EndNS - s.StartNS)
	}
	return map[string]float64{
		"phase.setup_pct": 100 * ratio(sums["setup"], sums["unit"]),
		"phase.run_pct":   100 * ratio(sums["run"], sums["unit"]),
		"phase.check_pct": 100 * ratio(sums["check"], sums["unit"]),
	}
}

// writeSpans writes every span as one JSON line to path.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profileShares reads the unit processes' profiles and attributes to
// layers the samples taken inside a unit's setup, run or check phase,
// returning each layer's share and the number of those samples. Samples
// without a phase label are the harness's own work between phases,
// chiefly the collection it forces before every unit.
func profileShares(paths []string) (map[string]float64, int64, error) {
	var inPhase []sample
	var n int64
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, 0, err
		}
		samples, err := parseProfile(data)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", p, err)
		}
		for _, s := range samples {
			if s.hasLabel("phase") {
				inPhase = append(inPhase, s)
				n += s.count
			}
		}
	}
	return layerShares(inPhase), n, nil
}
