package prof

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestHistQuantiles feeds a known distribution and checks the quantile
// summary: ordered percentiles, exact count/sum, and clamping of the
// bucket upper bound to the observed extrema.
func TestHistQuantiles(t *testing.T) {
	var h Hist
	var sum int64
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
		sum += i
	}
	s := h.Stats(1)
	if s.Count != 1000 {
		t.Errorf("count = %d, want 1000", s.Count)
	}
	if s.Sum != float64(sum) {
		t.Errorf("sum = %v, want %v", s.Sum, float64(sum))
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Errorf("min/max = %v/%v, want 1/1000", s.Min, s.Max)
	}
	if !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max) {
		t.Errorf("quantiles not ordered: p50=%v p90=%v p99=%v max=%v", s.P50, s.P90, s.P99, s.Max)
	}
	// Log2 buckets give upper bounds: the true p50 is 500, so the bucket
	// bound must land in [500, 1023]; p99 (true 990) in [990, 1023].
	if s.P50 < 500 || s.P50 > 1023 {
		t.Errorf("p50 = %v, want within [500, 1023]", s.P50)
	}
	if s.P99 < 990 || s.P99 > 1000 {
		t.Errorf("p99 = %v, want within [990, 1000] (clamped to max)", s.P99)
	}
}

// TestHistSingleAndNegative covers the degenerate shapes: one sample makes
// every percentile that sample, and negatives clamp to zero.
func TestHistSingleAndNegative(t *testing.T) {
	var h Hist
	h.Observe(42)
	s := h.Stats(1)
	if s.P50 != 42 || s.P90 != 42 || s.P99 != 42 || s.Min != 42 || s.Max != 42 {
		t.Errorf("single-sample stats = %+v, want all 42", s)
	}
	var n Hist
	n.Observe(-5)
	if got := n.Stats(1); got.Min != 0 || got.Max != 0 || got.Count != 1 {
		t.Errorf("negative sample stats = %+v, want clamped to zero", got)
	}
}

// TestHistStatsDiv checks unit scaling (nanos -> micros).
func TestHistStatsDiv(t *testing.T) {
	var h Hist
	h.Observe(2000)
	s := h.Stats(1e3)
	if s.Max != 2.0 || s.Sum != 2.0 {
		t.Errorf("divided stats = %+v, want max=sum=2.0", s)
	}
	if got := (&h).Stats(0); got.Count != 0 {
		t.Errorf("zero divisor must yield empty stats, got %+v", got)
	}
}

// TestTimelineSplitAndConserve: intervals split across bucket boundaries
// and total busy time is conserved exactly.
func TestTimelineSplitAndConserve(t *testing.T) {
	var tl timeline
	w := int64(initialTimelineWidth)
	tl.add(w/2, w/2+w) // spans buckets 0 and 1
	if tl.busyNs[0] != w/2 || tl.busyNs[1] != w/2 {
		t.Errorf("split = %d/%d, want %d/%d", tl.busyNs[0], tl.busyNs[1], w/2, w/2)
	}
	var total int64
	for _, b := range tl.busyNs {
		total += b
	}
	if total != w {
		t.Errorf("total busy = %d, want %d", total, w)
	}
}

// TestTimelineRescale: an interval past the last bucket doubles the width
// (merging adjacent pairs) until it fits, conserving recorded time.
func TestTimelineRescale(t *testing.T) {
	var tl timeline
	w := int64(initialTimelineWidth)
	tl.add(0, 10)                  // bucket 0
	tl.add(w, w+10)                // bucket 1
	far := w * timelineBuckets * 3 // forces two doublings
	tl.add(far, far+10)
	if tl.widthNs != w*4 {
		t.Errorf("width = %d, want %d after two rescales", tl.widthNs, w*4)
	}
	var total int64
	for _, b := range tl.busyNs {
		total += b
	}
	if total != 30 {
		t.Errorf("total busy = %d, want 30 (conserved across rescale)", total)
	}
	if tl.busyNs[0] != 20 {
		t.Errorf("bucket 0 = %d, want 20 (buckets 0 and 1 merged twice)", tl.busyNs[0])
	}
}

// TestTimelineIgnoresEmptyAndClamps: empty/inverted intervals are no-ops
// and negative starts clamp to the epoch.
func TestTimelineIgnoresEmptyAndClamps(t *testing.T) {
	var tl timeline
	tl.add(100, 100)
	tl.add(200, 100)
	if tl.widthNs != 0 {
		t.Error("empty intervals must not initialize the timeline")
	}
	tl.add(-50, 50)
	if tl.busyNs[0] != 50 {
		t.Errorf("negative start: bucket 0 = %d, want 50", tl.busyNs[0])
	}
}

// TestNilCollectorsZeroCost is the disabled-path contract: every collector
// method must tolerate a nil receiver and allocate nothing — this is what
// lets the scheduler hold nil pointers instead of branching on a flag.
func TestNilCollectorsZeroCost(t *testing.T) {
	var w *Worker
	var p *Profile
	var h *Hist
	allocs := testing.AllocsPerRun(1000, func() {
		_ = w.Now()
		w.Wait(0, true)
		w.Compute(0, 3)
		_ = p.Now()
		_ = p.Worker(0)
		p.RunEnd(0)
		p.SpawnJoin(0)
		p.Choose(0, 10, 2)
		p.ChooseAbort(0)
		p.Lookahead(700)
		p.UnboundedGateway()
		p.Barrier(0)
		p.WindowEvents(4)
		p.DrainOut(0, 1, 64)
		p.Drain(0)
		h.Observe(5)
	})
	if allocs != 0 {
		t.Errorf("nil collector calls allocate %.1f allocs/op, want 0", allocs)
	}
	if r := p.Report(); r != nil {
		t.Error("nil profile must report nil")
	}
}

// TestEnabledHotPathZeroAlloc: the per-window collector calls must not
// allocate even when profiling is enabled (fixed-size arithmetic only) —
// the <5% overhead budget has no room for GC pressure.
func TestEnabledHotPathZeroAlloc(t *testing.T) {
	p := New(2)
	w := p.Worker(0)
	allocs := testing.AllocsPerRun(1000, func() {
		t0 := w.Now()
		w.Wait(t0, false)
		t1 := w.Now()
		w.Compute(t1, 2)
		tc := p.Now()
		p.Lookahead(700)
		p.UnboundedGateway()
		p.Choose(tc, 1000, 2)
		p.WindowEvents(4)
		tb := p.Now()
		p.Barrier(tb)
		td := p.Now()
		p.DrainOut(0, 1, 64)
		p.Drain(td)
	})
	if allocs != 0 {
		t.Errorf("enabled per-window path allocates %.1f allocs/op, want 0", allocs)
	}
}

// driveProfile simulates one plausible run against the real clock: two
// shards, three windows (two with both shards active, one with shard 1
// only), one drain. The scheduler owns shard 0: it runs shard 0's windows
// between its barrier intervals and never waits on its own behalf.
func driveProfile() *Profile {
	p := New(2)
	tRun := p.Now()
	ts := p.SpawnJoin(tRun)
	window := func(span int64, shard0 bool) {
		p.Lookahead(700)
		p.Lookahead(900)
		active := 1
		if shard0 {
			active = 2
		}
		ts = p.Choose(ts, span, active)
		events := uint64(3)
		if shard0 {
			ts = p.Barrier(ts)
			spin(64)
			ts = p.Worker(0).Compute(ts, 3)
			events += 3
		}
		w := p.Worker(1)
		t0 := w.Now()
		w.Wait(t0, shard0)
		t1 := w.Now()
		spin(64)
		w.Compute(t1, 3)
		ts = p.Barrier(ts)
		p.WindowEvents(events)
		if shard0 {
			p.DrainOut(0, 2, 256)
		}
		ts = p.Drain(ts)
	}
	window(700, true)
	window(700, true)
	window(1200, false)
	p.ChooseAbort(ts) // horizon reached
	p.SpawnJoin(p.Now())
	p.RunEnd(tRun)
	return p
}

// spin burns a little real time so measured intervals are nonzero.
func spin(n int) {
	acc := 0
	for i := 0; i < n*1000; i++ {
		acc += i
	}
	if acc == -1 {
		panic("unreachable")
	}
}

// TestProfileReportConsistency drives a synthetic run and checks the
// exported report coheres: counts line up, Check passes, and two marshals
// are byte-identical (structural determinism).
func TestProfileReportConsistency(t *testing.T) {
	p := driveProfile()
	r := p.Report()
	if r.Windows != 3 || r.MultiWindows != 2 {
		t.Errorf("windows = %d/%d, want 3 total, 2 multi", r.Windows, r.MultiWindows)
	}
	if r.PerShard[0].Windows != 2 || r.PerShard[1].Windows != 3 {
		t.Errorf("shard windows = %d/%d, want 2/3", r.PerShard[0].Windows, r.PerShard[1].Windows)
	}
	if r.Runs != 1 || r.Shards != 2 || len(r.PerShard) != 2 {
		t.Errorf("runs/shards = %d/%d (per_shard %d), want 1/2/2", r.Runs, r.Shards, len(r.PerShard))
	}
	if got := r.PerShard[0].Events + r.PerShard[1].Events; got != 15 {
		t.Errorf("total shard events = %d, want 15", got)
	}
	if r.PerShard[0].Waits != 0 || r.PerShard[1].Waits != 3 || r.PerShard[1].Parks != 2 {
		t.Errorf("waits = %d/%d, shard 1 parks %d, want 0/3 and 2",
			r.PerShard[0].Waits, r.PerShard[1].Waits, r.PerShard[1].Parks)
	}
	if r.Sched.DrainInjections != 4 || r.Sched.DrainBytes != 512 {
		t.Errorf("drain = %d inj / %d bytes, want 4/512", r.Sched.DrainInjections, r.Sched.DrainBytes)
	}
	if r.LookaheadUS.Count != 6 {
		t.Errorf("lookahead count = %d, want 6", r.LookaheadUS.Count)
	}
	if r.Imbalance < 1 {
		t.Errorf("imbalance = %v, want >= 1", r.Imbalance)
	}
	// The synthetic driver does nothing between phase samples, so nearly
	// all wall time is inside measured phases. A run covering exactly the
	// widest window's span is consistent.
	r.VirtualNS = 1200
	if err := r.Check(0.5); err != nil {
		t.Errorf("Check: %v\n%s", err, r.JSON())
	}
	if len(r.Timeline) != 2 {
		t.Errorf("%d shard timelines, want one per shard", len(r.Timeline))
	}
	if !bytes.Equal(r.JSON(), r.JSON()) {
		t.Error("Report.JSON not deterministic across calls")
	}
}

// TestReportCheckRejects enumerates the inconsistencies Check exists to
// catch — each mutation of a valid report must fail with a distinct error.
func TestReportCheckRejects(t *testing.T) {
	valid := func() *Report { return driveProfile().Report() }
	cases := []struct {
		name string
		mut  func(*Report)
		want string
	}{
		{"nil report", nil, "no profile"},
		{"zero wall", func(r *Report) { r.WallSeconds = 0 }, "wall_seconds"},
		{"one shard", func(r *Report) { r.Shards = 1; r.PerShard = r.PerShard[:1] }, "shards"},
		{"per-shard mismatch", func(r *Report) { r.PerShard = r.PerShard[:1] }, "per_shard"},
		{"negative phase", func(r *Report) { r.Sched.DrainSeconds = -1 }, "drain_seconds"},
		{"phase overflow", func(r *Report) { r.Sched.BarrierSeconds = r.WallSeconds * 2 }, "exceeds wall clock"},
		{"unaccounted", func(r *Report) { r.AccountedFraction = 0.1 }, "accounted_fraction"},
		{"no windows", func(r *Report) { r.Windows = 0 }, "windows"},
		{"window overflow", func(r *Report) { r.MultiWindows = r.Windows + 1 }, "exceed total"},
		{"span count", func(r *Report) { r.WindowSpanUS.Count++ }, "window_span_us"},
		{"span beyond horizon", func(r *Report) { r.VirtualNS = 1000 }, "virtual ns"},
		{"shard windows short", func(r *Report) { r.PerShard[1].Windows-- }, "per-shard windows"},
		{"no gateway evaluations", func(r *Report) { r.LookaheadUS = HistStats{} }, "unbounded_gateways"},
		{"event mismatch", func(r *Report) { r.PerShard[0].Events++ }, "events"},
		{"dispatch bound", func(r *Report) { r.KernelDispatches = 1 }, "dispatches"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r *Report
			if tc.mut != nil {
				r = valid()
				tc.mut(r)
			}
			err := r.Check(0.5)
			if err == nil {
				t.Fatalf("Check accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestReportCheckUnboundedOnly: a run whose gateways never bound another
// domain (declared flows, flow-affinity partition) records no lookahead
// samples, only unbounded evaluations, and is still consistent.
func TestReportCheckUnboundedOnly(t *testing.T) {
	r := driveProfile().Report()
	r.LookaheadUS = HistStats{}
	r.UnboundedGateways = 4
	if err := r.Check(0.5); err != nil {
		t.Errorf("Check rejected an unbounded-only report: %v", err)
	}
}

// TestReportJSONRoundTrip: the profile section must survive the
// BENCH_pdes.json round trip (what nectar-obs prof -in consumes).
func TestReportJSONRoundTrip(t *testing.T) {
	r := driveProfile().Report()
	r.KernelDispatches = 16
	r.WireFrames = 8
	var back Report
	if err := json.Unmarshal(r.JSON(), &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.JSON(), r.JSON()) {
		t.Error("report changed across JSON round trip")
	}
	if err := back.Check(0.5); err != nil {
		t.Errorf("round-tripped report fails Check: %v", err)
	}
}

// TestFormatRendersEverySection smoke-tests the human rendering: timeline,
// breakdown rows, histograms, and traffic counters all appear.
func TestFormatRendersEverySection(t *testing.T) {
	r := driveProfile().Report()
	r.KernelDispatches = 16
	r.WireFrames = 8
	out := r.Format(0)
	for _, want := range []string{
		"per-shard activity timeline",
		"wall-clock breakdown",
		"sched.barrier",
		"shard0.compute",
		"shard1.compute",
		"shard1.wait.park",
		"window span",
		"gateway lookahead",
		"events/window",
		"kernel dispatches",
		"accounted:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	if top := r.FormatBreakdown(3); strings.Count(top, "\n") > 6 {
		t.Errorf("FormatBreakdown(3) did not truncate:\n%s", top)
	}
}
