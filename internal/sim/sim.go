// Package sim provides the deterministic discrete-event kernel that all of
// the Nectar hardware and runtime models execute on.
//
// The kernel owns a virtual clock and an event queue ordered by
// (time, sequence number), which makes every run fully deterministic: two
// events scheduled for the same instant fire in the order they were
// scheduled. Simulated activities are either callbacks (At/After, which must
// not block) or Procs — coroutines that the kernel runs one at a time,
// SimPy-style, and that may block on virtual time (Sleep) or on Signals.
//
// The kernel itself is single-threaded: exactly one flow of control (either
// the event loop or one Proc) is ever executing simulation code. A Proc is
// an iter.Pull coroutine: the event that wakes it resumes it with next, and
// it hands control back with yield, both a runtime.coroswitch on the
// resuming goroutine's thread. There is no data race on simulation state,
// no need for locks in any model code, and no allocation per switch.
// Distinct Kernels share nothing, so independent simulations may run
// concurrently on separate goroutines (the parallel experiment harness in
// internal/bench relies on this).
//
// # Event-queue design
//
// The run queue is built for the protocol-stack hot path, where timers are
// armed and cancelled far more often than they fire (every TCP/RMP
// transmission re-arms its retransmission timer):
//
//   - Event records live in a slot arena ([]event) recycled through a
//     free list, so After/At perform no per-call allocation in steady
//     state. Timer handles are small (slot, generation) values — the
//     generation is bumped when a slot is freed, which invalidates stale
//     handles without any heap-allocated state.
//   - The priority queue is an inlined 4-ary min-heap over (at, seq) keys
//     stored directly in the heap entries. A 4-ary heap halves the tree
//     depth of a binary heap and keeps sibling keys in adjacent cache
//     lines; comparisons never chase event pointers.
//   - Timer.Stop removes the event from the heap eagerly (sift-fix at its
//     index) instead of leaving a dead record resident until pop, so
//     timer-heavy workloads do not grow the queue with cancelled RTOs,
//     and PendingEvents is a maintained O(1) counter.
//
// Because every key (at, seq) is unique and the comparator is total, the
// pop order — and therefore every simulation result — is byte-identical to
// the previous container/heap implementation (see the determinism tests and
// BENCH_kernel.json for the recorded speedup).
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

func (t Time) String() string {
	return fmt.Sprintf("%.3fus", float64(t)/1e3)
}

func (d Duration) String() string {
	return fmt.Sprintf("%.3fus", float64(d)/1e3)
}

// Micros reports the duration in (fractional) microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Nanos reports the duration as integer virtual nanoseconds. It is the
// unit-dropping exit point: code outside package sim should reach for it
// (or Micros/Seconds) instead of casting, so the unitsafe analyzer can
// tell a deliberate measurement boundary from an accidental one.
func (d Duration) Nanos() int64 { return int64(d) }

// Seconds reports the duration in (fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros reports the instant in (fractional) microseconds since the
// virtual epoch.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Nanos reports the instant as integer virtual nanoseconds since the
// virtual epoch; like Duration.Nanos, the audited unit-dropping exit.
func (t Time) Nanos() int64 { return int64(t) }

// Micros constructs a Duration from fractional microseconds.
func Micros(us float64) Duration { return Duration(us * 1e3) }

// event is one slot in the kernel's event arena. Slots are recycled through
// a free list; gen distinguishes successive occupancies so stale Timer
// handles are detected without per-timer allocation.
type event struct {
	at      Time
	seq     uint64
	fn      func()
	gen     uint64
	heapIdx int32 // index into Kernel.heap while queued
}

// heapEntry is one node of the 4-ary min-heap. The ordering key is stored
// inline so sift operations never dereference the arena.
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32
}

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Timer is a handle to a scheduled callback that can be cancelled. The zero
// Timer is valid and behaves like an already-fired timer (Stop and Pending
// report false, When reports 0), so struct fields holding a Timer need no
// "armed" sentinel.
type Timer struct {
	k    *Kernel
	slot int32
	gen  uint64
}

// Stop cancels the timer, eagerly removing its event from the queue. It
// reports whether the callback was still pending (false if it already fired
// or was already stopped).
//
//nectar:hotpath
func (t Timer) Stop() bool {
	k := t.k
	if k == nil {
		return false
	}
	e := &k.arena[t.slot]
	if e.gen != t.gen {
		return false
	}
	k.heapRemove(int(e.heapIdx))
	k.freeSlot(t.slot)
	return true
}

// Pending reports whether the timer has not yet fired or been stopped.
func (t Timer) Pending() bool {
	return t.k != nil && t.k.arena[t.slot].gen == t.gen
}

// When reports the virtual time at which the timer will fire. For a zero,
// stopped, or already-fired timer it returns the zero Time (use Pending to
// distinguish a live timer scheduled for t=0).
func (t Timer) When() Time {
	if t.k == nil {
		return 0
	}
	e := &t.k.arena[t.slot]
	if e.gen != t.gen {
		return 0
	}
	return e.at
}

// Kernel is the discrete-event simulation kernel.
type Kernel struct {
	now Time
	seq uint64
	// The event heap, arena, and free list are per-shard state under
	// PDES sharding (one kernel per domain): //nectar:shard-owned makes
	// shardsafe reject any access that cannot prove same-domain
	// ownership through a receiver/parameter chain.
	heap []heapEntry //nectar:shard-owned

	arena []event //nectar:shard-owned
	free  []int32 //nectar:shard-owned

	// steps counts dispatched events for the whole life of the kernel: the
	// profiler's sampling counter on the dispatch loop. One increment per
	// event — cheap enough to stay unconditional.
	steps uint64 //nectar:shard-owned

	procs     map[*Proc]struct{} // live procs (for deadlock reporting)
	parked    int                // live procs idle in Park, which are not a deadlock
	current   *Proc              // proc currently executing, nil = kernel loop
	timedFree []*timedWaiter     // WaitTimeout records ready for reuse
	failure   error              // a proc panicked or Fatalf was called
	running   bool
	tracer    func(name string, at Time)
	// Opaque slot for the observability layer (internal/obs). Traces and
	// metrics are per-domain under PDES sharding (merged at the end of
	// the run), so the slot is shard-owned like the heap.
	observer any //nectar:shard-owned
}

// SetObserver attaches an opaque observability object to the kernel. The
// kernel never inspects it; it exists so layers sharing a kernel can find
// the same observer without the sim package importing internal/obs.
func (k *Kernel) SetObserver(o any) { k.observer = o }

// Observer returns the object installed with SetObserver (nil if none).
func (k *Kernel) Observer() any { return k.observer }

// SetTracer installs an instrumentation callback invoked by Mark. Pass nil
// to disable tracing (the default; Mark is then nearly free).
func (k *Kernel) SetTracer(fn func(name string, at Time)) { k.tracer = fn }

// Mark records a named instant when a tracer is installed. Hardware and
// runtime layers call it at stage boundaries so experiments (e.g. the
// Figure 6 latency breakdown) can attribute time without changing code
// paths. Hot paths should pass a precomputed name (see Markf's doc comment).
func (k *Kernel) Mark(name string) {
	if k.tracer != nil {
		k.tracer(name, k.now)
	}
}

// Markf is Mark with lazy formatting: the name is only built when a tracer
// is installed. Note that the variadic args slice itself is built by the
// caller even with tracing off, so per-event hot paths should precompute
// their mark name once (layers qualify marks with a node identity that is
// fixed at construction time) and call Mark instead.
func (k *Kernel) Markf(format string, args ...any) {
	if k.tracer != nil {
		k.tracer(fmt.Sprintf(format, args...), k.now)
	}
}

// NewKernel creates an empty kernel at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{procs: make(map[*Proc]struct{})}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// schedule inserts an event at time at (>= now) and returns its slot.
//
//nectar:hotpath
func (k *Kernel) schedule(at Time, fn func()) int32 {
	if at < k.now {
		Panicf("sim: scheduling into the past: %v < now %v", at, k.now)
	}
	k.seq++
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.arena = append(k.arena, event{})
		slot = int32(len(k.arena) - 1)
	}
	e := &k.arena[slot]
	e.at = at
	e.seq = k.seq
	e.fn = fn
	k.heapPush(heapEntry{at: at, seq: k.seq, slot: slot})
	return slot
}

// freeSlot recycles an arena slot, invalidating outstanding Timer handles.
//
//nectar:hotpath
func (k *Kernel) freeSlot(slot int32) {
	e := &k.arena[slot]
	e.fn = nil
	e.gen++
	e.heapIdx = -1
	k.free = append(k.free, slot)
}

// injectBatch schedules a window's buffered cross-domain injections in a
// single call (the coupling's barrier drain). Heap and arena capacity are
// reserved up front so the per-injection schedule calls never reallocate
// mid-batch; sequence numbers are assigned here in batch order, and heap
// pop order depends only on the (time, seq) keys, so batching is
// indistinguishable from individual At calls in the same order. Returns
// the summed wire bytes for the profiler's drain accounting.
func (k *Kernel) injectBatch(injs []pendingInj) uint64 {
	n := len(injs)
	if cap(k.heap)-len(k.heap) < n {
		grown := make([]heapEntry, len(k.heap), len(k.heap)+n+len(k.heap)/2)
		copy(grown, k.heap)
		k.heap = grown
	}
	if spare := len(k.free) + (cap(k.arena) - len(k.arena)); spare < n {
		grown := make([]event, len(k.arena), len(k.arena)+n+len(k.arena)/2)
		copy(grown, k.arena)
		k.arena = grown
	}
	var bytes uint64
	for i := range injs {
		k.schedule(injs[i].at, injs[i].fn)
		bytes += uint64(injs[i].bytes)
	}
	return bytes
}

// At schedules fn to run at absolute virtual time at. fn runs in kernel
// context and must not block.
//
//nectar:hotpath
func (k *Kernel) At(at Time, fn func()) Timer {
	slot := k.schedule(at, fn)
	return Timer{k: k, slot: slot, gen: k.arena[slot].gen}
}

// After schedules fn to run d from now. fn runs in kernel context and must
// not block.
//
//nectar:hotpath
func (k *Kernel) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+Time(d), fn)
}

// Fatalf aborts the simulation with an error; Run returns it.
func (k *Kernel) Fatalf(format string, args ...any) {
	if k.failure == nil {
		k.failure = fmt.Errorf(format, args...)
	}
}

// --- inlined 4-ary min-heap ---

//nectar:hotpath
func (k *Kernel) heapPush(e heapEntry) {
	k.heap = append(k.heap, e)
	k.siftUp(len(k.heap) - 1)
}

//nectar:hotpath
func (k *Kernel) siftUp(i int) {
	h := k.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		k.arena[h[i].slot].heapIdx = int32(i)
		i = p
	}
	h[i] = e
	k.arena[e.slot].heapIdx = int32(i)
}

//nectar:hotpath
func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[m]) {
				m = j
			}
		}
		if !entryLess(h[m], e) {
			break
		}
		h[i] = h[m]
		k.arena[h[i].slot].heapIdx = int32(i)
		i = m
	}
	h[i] = e
	k.arena[e.slot].heapIdx = int32(i)
}

// heapRemove deletes the entry at heap index i, restoring heap order.
//
//nectar:hotpath
func (k *Kernel) heapRemove(i int) {
	h := k.heap
	n := len(h) - 1
	last := h[n]
	k.heap = h[:n]
	if i < n {
		h[i] = last
		k.arena[last.slot].heapIdx = int32(i)
		k.siftDown(i)
		k.siftUp(i)
	}
}

// step pops and executes one event. Returns false when the queue is empty.
//
//nectar:hotpath
func (k *Kernel) step() bool {
	if len(k.heap) == 0 {
		return false
	}
	top := k.heap[0]
	if top.at < k.now {
		panic("sim: time went backwards")
	}
	k.heapRemove(0)
	k.now = top.at
	k.steps++
	fn := k.arena[top.slot].fn
	k.freeSlot(top.slot)
	fn()
	return true
}

// Dispatched reports how many events the kernel has executed since
// creation — the dispatch-loop sampling counter wall-clock profiling
// (internal/prof) uses to attribute events to windows and shards.
func (k *Kernel) Dispatched() uint64 { return k.steps }

// Run executes events until the queue is empty or the horizon (if > 0) is
// reached. It returns an error if a proc panicked or Fatalf was called.
// If the queue drains while procs are still blocked, Run returns a deadlock
// error naming them — models that want an idle-but-alive system (e.g. a
// server waiting forever) should stop via RunUntil instead.
func (k *Kernel) Run() error { return k.run(-1) }

// RunUntil executes events with timestamps <= horizon and then advances the
// clock to horizon. Blocked procs are not a deadlock under RunUntil.
func (k *Kernel) RunUntil(horizon Time) error { return k.run(horizon) }

// RunFor is RunUntil(Now()+d).
func (k *Kernel) RunFor(d Duration) error { return k.run(k.now + Time(d)) }

func (k *Kernel) run(horizon Time) error {
	if k.running {
		panic("sim: Run re-entered")
	}
	k.running = true
	defer func() { k.running = false }()
	for k.failure == nil {
		if horizon >= 0 && len(k.heap) > 0 {
			// Peek: stop before executing events past the horizon.
			if k.heap[0].at > horizon {
				break
			}
		}
		if !k.step() {
			break
		}
	}
	if k.failure != nil {
		return k.failure
	}
	if horizon >= 0 {
		if k.now < horizon {
			k.now = horizon
		}
		return nil
	}
	if k.blocked() {
		return fmt.Errorf("sim: deadlock at %v: blocked procs: %s", k.now, k.procNames())
	}
	return nil
}

// blocked reports whether any live proc is blocked rather than parked.
func (k *Kernel) blocked() bool { return len(k.procs) > k.parked }

// procNames lists the blocked procs with their blocking labels, sorted.
func (k *Kernel) procNames() string {
	var names []string
	for p := range k.procs {
		if p.state != procParked {
			names = append(names, p.name+"@"+p.label())
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Idle reports whether no events are pending.
func (k *Kernel) Idle() bool { return len(k.heap) == 0 }

// NextEventAt reports the timestamp of the earliest pending event, or
// (0, false) when the queue is empty. The coupling scheduler uses it to
// compute each domain's Next Event Time without disturbing the queue.
func (k *Kernel) NextEventAt() (Time, bool) {
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.heap[0].at, true
}

// runBounded executes every event with timestamp strictly less than bound
// and returns without advancing the clock past the last executed event.
// Unlike RunUntil it does not finalize the clock at the bound: the caller
// (a Coupling window scheduler) may still inject events at times >= the
// current bound before choosing the next one. Blocked procs are never a
// deadlock under runBounded.
func (k *Kernel) runBounded(bound Time) error {
	if k.running {
		panic("sim: Run re-entered")
	}
	k.running = true
	defer func() { k.running = false }()
	for k.failure == nil {
		if len(k.heap) == 0 || k.heap[0].at >= bound {
			break
		}
		if !k.step() {
			break
		}
	}
	return k.failure
}

// advanceTo finalizes the clock at t (>= now) without executing events.
// The coupling scheduler calls it when a run horizon is reached so that
// Now() agrees across domains even if a domain had no events this window.
func (k *Kernel) advanceTo(t Time) {
	if t > k.now {
		k.now = t
	}
}

// PendingEvents returns the number of live events in the queue. Stopped
// timers are removed eagerly, so this is simply the queue length — O(1),
// where it used to scan the queue filtering dead entries.
func (k *Kernel) PendingEvents() int { return len(k.heap) }
