// Package prof is the runtime performance observatory: a low-overhead
// wall-clock profiling layer for the simulator itself. internal/obs
// observes the *simulated* system on virtual time; prof observes the
// *simulator* on wall time — where the real seconds of a sharded run go
// (compute inside safe windows, spinning or parked at the window barrier,
// draining cross-shard outboxes, choosing the next window), the same
// methodology the paper's Figure 6 applies to a TCP send, pointed back at
// the engine that reproduces it.
//
// Design rules, in priority order:
//
//   - Provably zero-cost when disabled. Every collector type is
//     nil-receiver tolerant; the sharded scheduler holds nil pointers
//     until profiling is enabled, so the disabled hot path is a nil check
//     and the kernel/barrier paths stay at exactly 0 allocs (guarded by
//     AllocsPerRun tests here and in internal/sim).
//   - Cheap when enabled. All aggregation is fixed-size arithmetic on
//     preallocated structs: log2 bucket histograms, power-of-two
//     rescaling timelines, plain field accumulation. Nothing on the
//     per-window path allocates; the target is <5% overhead on a
//     barrier-dominated run.
//   - Deterministically renderable. Report marshals with a fixed field
//     order (the same canonical-JSON discipline as internal/obs
//     snapshots), so two identical runs produce structurally identical
//     profiles; only the measured wall-clock magnitudes differ.
//
// This package is inside the determinism contract (nectar-vet's walltime
// analyzer covers it) precisely because it is the one place wall-clock
// readings are legitimate: the two time.* call sites below carry reasoned
// //nectar:allow-walltime waivers, and the waiver inventory check in CI
// pins them here.
package prof

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"time"
)

// epoch anchors every reading: all timestamps handled by this package are
// monotonic nanosecond deltas from process start, never absolute wall
// times, so arithmetic between any two readings is safe.
var epoch = time.Now() //nectar:allow-walltime profiler epoch: readings are monotonic deltas, never absolute times

// nowNanos is the profiler's clock: monotonic nanoseconds since the
// process epoch. It is the single wall-clock sampling point of the
// package (and of the whole deterministic tree).
func nowNanos() int64 {
	return int64(time.Since(epoch)) //nectar:allow-walltime wall-clock sampling is the profiler's purpose
}

// ---------------------------------------------------------------------
// Log2 histogram
// ---------------------------------------------------------------------

// Hist accumulates non-negative int64 samples (nanoseconds or counts)
// into log2 buckets. Observe is allocation-free; quantiles are derived at
// export time with bucket resolution, clamped to the observed extrema.
// It is the repo's one log2 histogram: obs.Histogram wraps it with
// virtual-time typing, which is why this package imports only the
// standard library.
type Hist struct {
	buckets [65]uint64 // bucket i holds samples with bits.Len64(v) == i
	count   uint64
	sum     int64
	min     int64
	max     int64
}

// Observe records one sample (negatives clamp to zero).
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds other into h at bucket level: bucket counts, totals and
// extrema compose exactly, so a histogram merged from several
// registries reports the same quantiles as one that saw every sample.
func (h *Hist) Merge(other *Hist) {
	if h == nil || other == nil || other.count == 0 {
		return
	}
	for i, n := range other.buckets {
		h.buckets[i] += n
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// quantile returns an upper bound for the q-quantile at bucket
// resolution, clamped to [min, max].
func (h *Hist) quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= rank {
			var ub int64
			if i > 0 {
				ub = int64(uint64(1)<<uint(i) - 1)
			}
			if ub < h.min {
				ub = h.min
			}
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// HistStats is the exported summary of a Hist. Values are in the unit
// the embedding field names (microseconds for the *_us fields of Report,
// raw counts for events_per_window).
type HistStats struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Stats summarizes the histogram, dividing every value by div (1e3 turns
// nanosecond samples into microsecond stats; 1 keeps counts).
func (h *Hist) Stats(div float64) HistStats {
	if h == nil || div == 0 {
		return HistStats{}
	}
	return HistStats{
		Count: h.count,
		Sum:   float64(h.sum) / div,
		Min:   float64(h.min) / div,
		P50:   float64(h.quantile(0.50)) / div,
		P90:   float64(h.quantile(0.90)) / div,
		P99:   float64(h.quantile(0.99)) / div,
		Max:   float64(h.max) / div,
	}
}

// ---------------------------------------------------------------------
// Per-shard activity timeline
// ---------------------------------------------------------------------

// timelineBuckets is the fixed resolution of a shard activity timeline.
const timelineBuckets = 256

// timeline records busy wall-time per fixed-width bucket since the
// profile epoch. When an interval lands past the last bucket the whole
// timeline rescales by merging adjacent pairs and doubling the bucket
// width (HDR-style), so memory stays constant for arbitrarily long runs
// while resolution degrades gracefully.
type timeline struct {
	widthNs int64 // nanoseconds per bucket, power of two
	busyNs  [timelineBuckets]int64
}

// initialTimelineWidth is 65.536us per bucket: a 256-bucket timeline
// covers ~16.8ms before its first rescale, which matches the wall clock
// of the stock pdes experiment within one doubling.
const initialTimelineWidth = 1 << 16

// add accrues the busy interval [t0, t1) (nanos relative to the profile
// start) into the timeline, splitting it across bucket boundaries.
func (tl *timeline) add(t0, t1 int64) {
	if t1 <= t0 {
		return
	}
	if t0 < 0 {
		t0 = 0
	}
	if tl.widthNs == 0 {
		tl.widthNs = initialTimelineWidth
	}
	for t0 < t1 {
		i := t0 / tl.widthNs
		for i >= timelineBuckets {
			tl.rescale()
			i = t0 / tl.widthNs
		}
		end := (i + 1) * tl.widthNs
		if end > t1 {
			end = t1
		}
		tl.busyNs[i] += end - t0
		t0 = end
	}
}

// rescale halves the resolution: bucket i becomes buckets 2i + 2i+1.
func (tl *timeline) rescale() {
	for i := 0; i < timelineBuckets/2; i++ {
		tl.busyNs[i] = tl.busyNs[2*i] + tl.busyNs[2*i+1]
	}
	for i := timelineBuckets / 2; i < timelineBuckets; i++ {
		tl.busyNs[i] = 0
	}
	tl.widthNs *= 2
}

// ---------------------------------------------------------------------
// Collectors
// ---------------------------------------------------------------------

// Worker is the per-shard collector. Exactly one goroutine writes it
// during a run, the shard's owner: the coupling scheduler for shard 0 and
// that shard's worker for every other. Reports read it only between runs,
// behind the worker-join barrier, so all fields are plain — the same
// single-writer discipline as the shard kernels themselves. The
// scheduler's waits are its barrier phase, so shard 0 records none.
type Worker struct {
	baseNs int64 // profile start, for timeline bucketing

	computeNs int64  // wall time inside the shard's windows
	events    uint64 // kernel dispatches inside those windows
	windows   uint64 // windows the shard executed
	spinNs    int64  // barrier waits resolved by spinning
	parkNs    int64  // barrier waits that parked on the wake channel
	parks     uint64 // how many waits parked
	waits     uint64 // total barrier waits

	tl timeline
}

// Now samples the profiler clock; on a nil receiver it returns 0 without
// reading the clock, so the disabled barrier path stays a nil check.
func (w *Worker) Now() int64 {
	if w == nil {
		return 0
	}
	return nowNanos()
}

// Wait accrues one completed barrier wait that started at t0, classified
// by whether the worker had to park on its wake channel. It returns its
// end sample: passing it as the next phase's start makes the worker's
// intervals tile its wall clock exactly (stopwatch chaining), so the
// collector's own bookkeeping is attributed to a phase instead of
// leaking into unaccounted gaps.
func (w *Worker) Wait(t0 int64, parked bool) int64 {
	if w == nil {
		return 0
	}
	t1 := nowNanos()
	if parked {
		w.parkNs += t1 - t0
		w.parks++
	} else {
		w.spinNs += t1 - t0
	}
	w.waits++
	return t1
}

// Compute accrues one window's execution that started at t0 and
// dispatched events kernel events, and marks the interval busy on the
// shard's timeline. Returns its end sample (stopwatch chaining).
func (w *Worker) Compute(t0 int64, events uint64) int64 {
	if w == nil {
		return 0
	}
	t1 := nowNanos()
	w.computeNs += t1 - t0
	w.events += events
	w.windows++
	w.tl.add(t0-w.baseNs, t1-w.baseNs)
	return t1
}

// Profile is the run-level collector, owned and written by the coupling
// scheduler goroutine (every shard's owner writes only its own Worker).
type Profile struct {
	startNs int64
	workers []*Worker

	runs        uint64
	wallNs      int64 // accumulated wall time inside Coupling.run
	spawnJoinNs int64 // starting and joining the shard workers
	chooseNs    int64 // computing NET, the safe bound, and the active set
	barrierNs   int64 // publishing windows and awaiting worker completion
	drainNs     int64 // injecting buffered cross-shard messages

	windows      uint64
	multiWindows uint64

	drainInj   []uint64 // per source shard
	drainBytes []uint64 // per source shard

	winSpan   Hist   // safe-window width beyond the earliest event, virtual ns
	lookahead Hist   // per-gateway min over dst of EarliestOutputTo(dst, act) - act, virtual ns
	unbounded uint64 // gateway evaluations that bound no other domain
	winEvents Hist   // kernel dispatches per window
}

// New creates a profile for a coupling of the given shard count.
func New(shards int) *Profile {
	p := &Profile{startNs: nowNanos()}
	p.workers = make([]*Worker, shards)
	for i := range p.workers {
		p.workers[i] = &Worker{baseNs: p.startNs}
	}
	p.drainInj = make([]uint64, shards)
	p.drainBytes = make([]uint64, shards)
	return p
}

// Worker returns shard i's collector (nil when the profile is nil or i is
// out of range, which downstream methods tolerate).
func (p *Profile) Worker(i int) *Worker {
	if p == nil || i < 0 || i >= len(p.workers) {
		return nil
	}
	return p.workers[i]
}

// Now samples the profiler clock (0 on a nil profile).
func (p *Profile) Now() int64 {
	if p == nil {
		return 0
	}
	return nowNanos()
}

// RunEnd accrues one Coupling.run invocation that started at t0.
func (p *Profile) RunEnd(t0 int64) {
	if p == nil {
		return
	}
	p.wallNs += nowNanos() - t0
	p.runs++
}

// SpawnJoin accrues worker start/stop overhead that started at t0 and
// returns its end sample (stopwatch chaining: the scheduler passes each
// phase's end as the next phase's start, so the phase intervals tile the
// run's wall clock exactly and AccountedFraction stays near 1 even when
// windows last microseconds).
func (p *Profile) SpawnJoin(t0 int64) int64 {
	if p == nil {
		return 0
	}
	t1 := nowNanos()
	p.spawnJoinNs += t1 - t0
	return t1
}

// Choose accrues one window-selection phase that started at t0: spanNs is
// the safe window's virtual width beyond the earliest event (bound -
// minNET), active the number of shards with events inside it. Returns its
// end sample (stopwatch chaining).
func (p *Profile) Choose(t0, spanNs int64, active int) int64 {
	if p == nil {
		return 0
	}
	t1 := nowNanos()
	p.chooseNs += t1 - t0
	p.winSpan.Observe(spanNs)
	p.windows++
	if active > 1 {
		p.multiWindows++
	}
	return t1
}

// ChooseAbort folds a window-selection phase that ended without a window
// (idle, horizon reached, or stall error) into the choose time.
func (p *Profile) ChooseAbort(t0 int64) {
	if p == nil {
		return
	}
	p.chooseNs += nowNanos() - t0
}

// Lookahead records one gateway's effective lookahead (virtual ns) during
// window selection.
func (p *Profile) Lookahead(ns int64) {
	if p == nil {
		return
	}
	p.lookahead.Observe(ns)
}

// UnboundedGateway counts one gateway evaluation during window
// selection that bounds no other domain: its earliest output to every
// other domain is MaxTime (declared flows keep all its peers local), so
// it has no finite lookahead to record.
func (p *Profile) UnboundedGateway() {
	if p == nil {
		return
	}
	p.unbounded++
}

// Barrier accrues one publish-and-await phase that started at t0 and
// returns its end sample (stopwatch chaining).
func (p *Profile) Barrier(t0 int64) int64 {
	if p == nil {
		return 0
	}
	t1 := nowNanos()
	p.barrierNs += t1 - t0
	return t1
}

// WindowEvents records the total kernel dispatches of one window.
func (p *Profile) WindowEvents(n uint64) {
	if p == nil {
		return
	}
	p.winEvents.Observe(int64(n))
}

// DrainOut attributes n buffered injections totalling bytes wire bytes to
// their source shard.
func (p *Profile) DrainOut(src int, n, bytes uint64) {
	if p == nil {
		return
	}
	p.drainInj[src] += n
	p.drainBytes[src] += bytes
}

// Drain accrues one outbox-drain phase that started at t0 and returns its
// end sample — the start of the next window's choose phase.
func (p *Profile) Drain(t0 int64) int64 {
	if p == nil {
		return 0
	}
	t1 := nowNanos()
	p.drainNs += t1 - t0
	return t1
}

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

// SchedReport is the scheduler-goroutine phase breakdown. Its phases and
// shard 0's compute, which the scheduler runs itself, are disjoint
// intervals of the scheduler thread that tile the run's wall clock; the
// other shards compute while the scheduler is inside barrier_seconds.
type SchedReport struct {
	SpawnJoinSeconds float64 `json:"spawn_join_seconds"`
	ChooseSeconds    float64 `json:"choose_seconds"`
	BarrierSeconds   float64 `json:"barrier_seconds"`
	DrainSeconds     float64 `json:"drain_seconds"`
	DrainInjections  uint64  `json:"drain_injections"`
	DrainBytes       uint64  `json:"drain_bytes"`
}

// ShardReport is one shard's breakdown: where its owner's wall clock went
// (compute vs spin vs park; shard 0's owner is the scheduler, which has
// no waits of its own) and its share of cross-shard traffic.
type ShardReport struct {
	Shard              int     `json:"shard"`
	ComputeSeconds     float64 `json:"compute_seconds"`
	SpinWaitSeconds    float64 `json:"spin_wait_seconds"`
	ParkWaitSeconds    float64 `json:"park_wait_seconds"`
	Waits              uint64  `json:"waits"`
	Parks              uint64  `json:"parks"`
	Windows            uint64  `json:"windows"`
	Events             uint64  `json:"events"`
	DrainOutInjections uint64  `json:"drain_out_injections"`
	DrainOutBytes      uint64  `json:"drain_out_bytes"`
	// Utilization is the shard's busy fraction of the profiled wall
	// clock: compute / wall.
	Utilization float64 `json:"utilization"`
}

// ShardTimeline is one shard's busy-time series: BusyNs[i] is the wall
// time the shard's windows occupied during bucket i
// of width BucketNs, starting at the profile epoch. Trailing all-zero
// buckets are trimmed.
type ShardTimeline struct {
	Shard    int     `json:"shard"`
	BucketNs int64   `json:"bucket_ns"`
	BusyNs   []int64 `json:"busy_ns"`
}

// Report is the exported profile: the `profile` section of
// BENCH_pdes.json and the input of nectar-obs prof. Field order is the
// canonical serialization order (encoding/json preserves struct order),
// so reports are structurally deterministic.
type Report struct {
	WallSeconds float64 `json:"wall_seconds"`
	Runs        uint64  `json:"runs"`
	Shards      int     `json:"shards"`

	Windows      uint64 `json:"windows"`
	MultiWindows uint64 `json:"multi_windows"`

	Sched     SchedReport   `json:"sched"`
	PerShard  []ShardReport `json:"per_shard"`
	Imbalance float64       `json:"imbalance"`
	// AccountedFraction is (spawn_join + choose + barrier + drain +
	// shard 0's compute) / wall: how much of the scheduler thread's wall
	// clock the phase breakdown explains. The CI smoke job requires >= 0.95.
	AccountedFraction float64 `json:"accounted_fraction"`

	WindowSpanUS    HistStats `json:"window_span_us"`
	LookaheadUS     HistStats `json:"lookahead_us"`
	EventsPerWindow HistStats `json:"events_per_window"`
	// UnboundedGateways counts the gateway evaluations that bounded no
	// other domain and so added no lookahead sample. Under declared flows
	// with flow-affinity partitioning every evaluation is unbounded.
	UnboundedGateways uint64 `json:"unbounded_gateways"`

	// VirtualNS is the virtual time the profiled runs covered, filled by
	// the embedder; it turns the window count into a rate (windows per
	// virtual millisecond) that is comparable across machines — the
	// at-a-glance lookahead-regression signal.
	VirtualNS int64 `json:"virtual_ns,omitempty"`

	// Sampling counters filled by the embedder (internal/bench): total
	// kernel dispatches across shard kernels and wire-path traffic.
	KernelDispatches uint64 `json:"kernel_dispatches,omitempty"`
	WireFrames       uint64 `json:"wire_frames,omitempty"`
	WireBytes        uint64 `json:"wire_bytes,omitempty"`
	CrossShardFrames uint64 `json:"cross_shard_frames,omitempty"`

	Timeline []ShardTimeline `json:"timeline,omitempty"`
}

const nsPerSec = 1e9

// Report exports the profile. It must only be called when no Coupling.run
// is in flight (the workers' fields are read un-synchronized; the
// worker-join barrier at the end of each run orders them).
func (p *Profile) Report() *Report {
	if p == nil {
		return nil
	}
	r := &Report{
		WallSeconds:  float64(p.wallNs) / nsPerSec,
		Runs:         p.runs,
		Shards:       len(p.workers),
		Windows:      p.windows,
		MultiWindows: p.multiWindows,
		Sched: SchedReport{
			SpawnJoinSeconds: float64(p.spawnJoinNs) / nsPerSec,
			ChooseSeconds:    float64(p.chooseNs) / nsPerSec,
			BarrierSeconds:   float64(p.barrierNs) / nsPerSec,
			DrainSeconds:     float64(p.drainNs) / nsPerSec,
		},
		WindowSpanUS:      p.winSpan.Stats(1e3),
		LookaheadUS:       p.lookahead.Stats(1e3),
		EventsPerWindow:   p.winEvents.Stats(1),
		UnboundedGateways: p.unbounded,
	}
	var busyMax, busySum int64
	for i, w := range p.workers {
		busyMax = max(busyMax, w.computeNs)
		busySum += w.computeNs
		sr := ShardReport{
			Shard:              i,
			ComputeSeconds:     float64(w.computeNs) / nsPerSec,
			SpinWaitSeconds:    float64(w.spinNs) / nsPerSec,
			ParkWaitSeconds:    float64(w.parkNs) / nsPerSec,
			Waits:              w.waits,
			Parks:              w.parks,
			Windows:            w.windows,
			Events:             w.events,
			DrainOutInjections: p.drainInj[i],
			DrainOutBytes:      p.drainBytes[i],
		}
		if p.wallNs > 0 {
			sr.Utilization = float64(w.computeNs) / float64(p.wallNs)
		}
		r.PerShard = append(r.PerShard, sr)
		r.Sched.DrainInjections += p.drainInj[i]
		r.Sched.DrainBytes += p.drainBytes[i]

		// Timeline, with trailing idle buckets trimmed.
		busy := w.tl.busyNs[:]
		for len(busy) > 0 && busy[len(busy)-1] == 0 {
			busy = busy[:len(busy)-1]
		}
		if len(busy) > 0 {
			r.Timeline = append(r.Timeline, ShardTimeline{Shard: i, BucketNs: w.tl.widthNs, BusyNs: slices.Clone(busy)})
		}
	}
	if busyMax > 0 && busySum > 0 {
		mean := float64(busySum) / float64(len(p.workers))
		r.Imbalance = float64(busyMax) / mean
	}
	if p.wallNs > 0 && len(p.workers) > 0 {
		accounted := p.spawnJoinNs + p.chooseNs + p.barrierNs + p.drainNs + p.workers[0].computeNs
		r.AccountedFraction = float64(accounted) / float64(p.wallNs)
	}
	return r
}

// JSON renders the report as indented, field-order-deterministic JSON.
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil { // only on unmarshalable types; Report has none
		panic(err)
	}
	return b
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

// Check validates the report's internal consistency: the phase seconds
// must be non-negative, the scheduler breakdown must account for at least
// minAccounted of the wall clock, window counts must be coherent (every
// window runs at least one shard and every multi window at least two, so
// the per-shard windows sum to at least windows + multi_windows), no
// window may span more virtual time than the run covered, and per-shard
// events must sum to the events the window histogram saw. It is the
// contract the CI profile smoke job enforces on BENCH_pdes.json.
func (r *Report) Check(minAccounted float64) error {
	if r == nil {
		return fmt.Errorf("prof: no profile section")
	}
	if r.WallSeconds <= 0 {
		return fmt.Errorf("prof: wall_seconds = %v, want > 0", r.WallSeconds)
	}
	if r.Shards < 2 {
		return fmt.Errorf("prof: shards = %d, want >= 2 (profiles cover sharded runs)", r.Shards)
	}
	if len(r.PerShard) != r.Shards {
		return fmt.Errorf("prof: per_shard has %d entries, want %d", len(r.PerShard), r.Shards)
	}
	for _, s := range []struct {
		name string
		v    float64
	}{
		{"spawn_join_seconds", r.Sched.SpawnJoinSeconds},
		{"choose_seconds", r.Sched.ChooseSeconds},
		{"barrier_seconds", r.Sched.BarrierSeconds},
		{"drain_seconds", r.Sched.DrainSeconds},
	} {
		if s.v < 0 {
			return fmt.Errorf("prof: sched.%s = %v, want >= 0", s.name, s.v)
		}
	}
	phases := r.Sched.SpawnJoinSeconds + r.Sched.ChooseSeconds + r.Sched.BarrierSeconds +
		r.Sched.DrainSeconds + r.PerShard[0].ComputeSeconds
	if phases > r.WallSeconds*1.05 {
		return fmt.Errorf("prof: phase seconds sum %.6f exceeds wall clock %.6f", phases, r.WallSeconds)
	}
	if r.AccountedFraction < minAccounted {
		return fmt.Errorf("prof: accounted_fraction %.3f < %.3f (phase sum %.6fs of %.6fs wall)",
			r.AccountedFraction, minAccounted, phases, r.WallSeconds)
	}
	if r.Windows == 0 {
		return fmt.Errorf("prof: windows = 0, want > 0")
	}
	if r.LookaheadUS.Count == 0 && r.UnboundedGateways == 0 {
		return fmt.Errorf("prof: %d windows but no gateway evaluations (lookahead_us.count = 0, unbounded_gateways = 0)", r.Windows)
	}
	if r.MultiWindows > r.Windows {
		return fmt.Errorf("prof: multi windows (%d) exceed total %d", r.MultiWindows, r.Windows)
	}
	if r.WindowSpanUS.Count != r.Windows {
		return fmt.Errorf("prof: window_span_us.count = %d, want windows = %d", r.WindowSpanUS.Count, r.Windows)
	}
	if r.VirtualNS > 0 && r.WindowSpanUS.Max > float64(r.VirtualNS)/1e3 {
		return fmt.Errorf("prof: window_span_us.max = %g exceeds the %d virtual ns the run covered",
			r.WindowSpanUS.Max, r.VirtualNS)
	}
	var shardWindows, shardEvents uint64
	for _, s := range r.PerShard {
		shardWindows += s.Windows
		shardEvents += s.Events
		if s.ComputeSeconds < 0 || s.SpinWaitSeconds < 0 || s.ParkWaitSeconds < 0 {
			return fmt.Errorf("prof: shard %d has negative phase seconds", s.Shard)
		}
	}
	if want := r.Windows + r.MultiWindows; shardWindows < want {
		return fmt.Errorf("prof: per-shard windows sum to %d, want >= windows + multi_windows = %d", shardWindows, want)
	}
	if ev := uint64(r.EventsPerWindow.Sum); ev != shardEvents {
		return fmt.Errorf("prof: per-shard events sum to %d but windows dispatched %d", shardEvents, ev)
	}
	if r.KernelDispatches > 0 && shardEvents > r.KernelDispatches {
		return fmt.Errorf("prof: windowed events %d exceed kernel dispatches %d", shardEvents, r.KernelDispatches)
	}
	return nil
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

// FormatBreakdown renders the Fig-6-style top-N table: every phase of
// every thread of the simulator, sorted by wall-clock cost, with its
// share of the profiled wall clock — the table that says where the
// seconds of a sharded run actually went.
func (r *Report) FormatBreakdown(topN int) string {
	type row struct {
		name    string
		seconds float64
	}
	rows := []row{
		{"sched.choose (NET/bound/active-set)", r.Sched.ChooseSeconds},
		{"sched.barrier (publish+await workers)", r.Sched.BarrierSeconds},
		{"sched.drain (cross-shard outboxes)", r.Sched.DrainSeconds},
		{"sched.spawn+join (worker lifecycle)", r.Sched.SpawnJoinSeconds},
	}
	for _, s := range r.PerShard {
		rows = append(rows,
			row{fmt.Sprintf("shard%d.compute", s.Shard), s.ComputeSeconds},
			row{fmt.Sprintf("shard%d.wait.spin", s.Shard), s.SpinWaitSeconds},
			row{fmt.Sprintf("shard%d.wait.park", s.Shard), s.ParkWaitSeconds},
		)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].seconds > rows[j].seconds })
	if topN > 0 && topN < len(rows) {
		rows = rows[:topN]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "wall-clock breakdown (%.3fs profiled wall, %d windows, %d runs)\n",
		r.WallSeconds, r.Windows, r.Runs)
	fmt.Fprintf(&b, "  %-40s %12s %8s\n", "phase", "seconds", "% wall")
	for _, rw := range rows {
		pct := 0.0
		if r.WallSeconds > 0 {
			pct = 100 * rw.seconds / r.WallSeconds
		}
		fmt.Fprintf(&b, "  %-40s %12.6f %7.1f%%\n", rw.name, rw.seconds, pct)
	}
	fmt.Fprintf(&b, "  accounted: %.1f%% of scheduler wall clock; imbalance %.2fx\n",
		100*r.AccountedFraction, r.Imbalance)
	return b.String()
}

// FormatHistograms renders the window-size, lookahead, and batching
// distributions.
func (r *Report) FormatHistograms() string {
	var b strings.Builder
	line := func(name, unit string, h HistStats) {
		fmt.Fprintf(&b, "  %-18s n=%-8d p50=%-10.6g p90=%-10.6g p99=%-10.6g max=%-10.6g %s\n",
			name, h.Count, h.P50, h.P90, h.P99, h.Max, unit)
	}
	b.WriteString("window distributions\n")
	line("window span", "us virtual", r.WindowSpanUS)
	line("gateway lookahead", "us virtual", r.LookaheadUS)
	fmt.Fprintf(&b, "  %-18s n=%d (bound no other domain)\n", "unbounded gateways", r.UnboundedGateways)
	line("events/window", "events", r.EventsPerWindow)
	if r.Windows > 0 {
		mean := 0.0
		if r.EventsPerWindow.Count > 0 {
			mean = r.EventsPerWindow.Sum / float64(r.EventsPerWindow.Count)
		}
		fmt.Fprintf(&b, "  batching: %.1f events/window mean", mean)
		if r.VirtualNS > 0 {
			fmt.Fprintf(&b, ", %.1f windows/virtual-ms", float64(r.Windows)/(float64(r.VirtualNS)/1e6))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// timelineGlyphs maps a bucket's utilization to a display glyph, darkest
// at fully busy.
var timelineGlyphs = []rune{' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'}

// FormatTimeline renders the per-shard activity timeline: one row per
// shard, wall time left to right, each column a bucket whose glyph
// encodes the fraction of that bucket the shard spent computing. cols
// bounds the width (adjacent buckets merge to fit); 0 means 100.
func (r *Report) FormatTimeline(cols int) string {
	if len(r.Timeline) == 0 {
		return "per-shard timeline: no activity recorded\n"
	}
	if cols <= 0 {
		cols = 100
	}
	// Common width: max bucket count may exceed cols; merge factor m.
	maxLen := 0
	for _, tl := range r.Timeline {
		if len(tl.BusyNs) > maxLen {
			maxLen = len(tl.BusyNs)
		}
	}
	m := (maxLen + cols - 1) / cols
	if m < 1 {
		m = 1
	}
	var b strings.Builder
	span := float64(r.Timeline[0].BucketNs*int64(m)) / 1e6
	fmt.Fprintf(&b, "per-shard activity timeline (column = %.3gms wall; ' '=idle '@'=busy)\n", span)
	for _, tl := range r.Timeline {
		fmt.Fprintf(&b, "  shard %d |", tl.Shard)
		for i := 0; i < len(tl.BusyNs); i += m {
			var busy, width int64
			for j := i; j < i+m && j < len(tl.BusyNs); j++ {
				busy += tl.BusyNs[j]
				width += tl.BucketNs
			}
			frac := float64(busy) / float64(width)
			g := int(frac * float64(len(timelineGlyphs)))
			if g >= len(timelineGlyphs) {
				g = len(timelineGlyphs) - 1
			}
			if g < 0 {
				g = 0
			}
			b.WriteRune(timelineGlyphs[g])
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// Format renders the full human-readable profile: timeline, breakdown,
// histograms, and traffic counters.
func (r *Report) Format(topN int) string {
	var b strings.Builder
	b.WriteString(r.FormatTimeline(100))
	b.WriteByte('\n')
	b.WriteString(r.FormatBreakdown(topN))
	b.WriteByte('\n')
	b.WriteString(r.FormatHistograms())
	if r.KernelDispatches > 0 || r.WireFrames > 0 {
		fmt.Fprintf(&b, "traffic: %d kernel dispatches, %d wire frames (%d bytes), %d cross-shard frames, %d drained injections (%d bytes)\n",
			r.KernelDispatches, r.WireFrames, r.WireBytes, r.CrossShardFrames,
			r.Sched.DrainInjections, r.Sched.DrainBytes)
	}
	return b.String()
}
