// Package sim provides the deterministic discrete-event kernel that all of
// the Nectar hardware and runtime models execute on.
//
// The kernel owns a virtual clock and an event queue ordered by
// (time, sequence number), which makes every run fully deterministic: two
// events scheduled for the same instant fire in the order they were
// scheduled. Simulated activities are either callbacks (At/After, which must
// not block) or Procs — coroutines that the kernel runs one at a time,
// SimPy-style. A Proc blocks with Suspend, and Resume wakes it; Signal
// is a small FIFO of suspended Procs. Every other wait queue and timeout,
// and sleeping for a span of virtual time, lives in the threads package
// above.
//
// The kernel itself is single-threaded: exactly one flow of control (either
// the event loop or one Proc) is ever executing simulation code. A Proc
// runs its body code on an iter.Pull coroutine that it borrows from the
// kernel's pool and holds only while that code runs: the event that wakes
// it resumes the coroutine with next, and it hands control back with
// yield, both a runtime.coroswitch on the resuming goroutine's thread.
// A waiting Proc runs the event loop itself until its wake-up comes, and
// switches straight into the Proc whose wake-up it reaches first
// ("Waits drive the loop" below), so most wake-ups need neither.
// There is no data race on simulation state, no need for locks in any
// model code, and no allocation per switch.
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
// the previous container/heap implementation (see the determinism tests;
// the Baseline* benchmarks measure the speedup against it).
//
// # Callbacks on hot paths
//
// At(t, fn) is the only event form. A capturing closure allocates each
// time it is built, so callers that schedule an event per frame or per
// message do not build one per event. They pass a method value built
// once per pooled object, on the pool's miss path, and the object in
// flight carries the state of its one pending step: a fiber.Packet its
// arrival or next HUB hop, a cab.RxDesc its header, interrupt or DMA
// step, a threads waiter its timeout. Scheduling such a callback at the
// same instant, in the same order, as the closure it replaces leaves
// every sequence number, and so every result, unchanged.
//
// # Inline advance
//
// A Proc that consumes d of CPU time would schedule an event at now+d and
// block until it wakes. Advance lets it move the clock to now+d in place
// instead, when three conditions make the two indistinguishable:
//
//   - A Proc is current. Only a Proc can block, so only a Proc can stand
//     in for its own wake-up; an event callback runs at one instant.
//   - now+d is below the bound of the dispatch loop in progress
//     (runBounded's limit: MaxTime under Run, the horizon + 1 under
//     RunUntil, the window bound under a Coupling). The loop would not
//     dispatch an event at or past its bound, and under a Coupling
//     another domain may still inject one there before the next window.
//   - The earliest queued event is strictly later than now+d. At equal
//     times the queued event fires first (it has the lower sequence
//     number), so equality must block.
//
// Then the event the Proc would schedule, and the wake-up it would
// trigger, would be the next events dispatched, with nothing between
// them and the Proc's return. Skipping them leaves only gaps in the
// sequence numbers, so the relative order of every other event, and
// every virtual-time result, is unchanged. Only the dispatch count
// (Dispatched) drops.
//
// # Spin steps
//
// A Proc that loops over short waits, such as a host process polling a
// word in CAB memory, costs two coroutine switches per iteration that
// waits: the wake event resumes it, and it yields at its next wait.
// Proc.Spin takes the loop body as a step function instead. Its first
// call runs in the Proc; each later one runs from the Proc's wake event,
// in kernel context with the Proc current, so Advance holds there as it
// does in the body. The coroutine resumes only when the step reports the
// loop done. The step schedules the same events, at the same instants
// and in the same order, as the loop it replaces, so every sequence
// number and Dispatched are unchanged; only Resumes drops.
//
// # Spin slots
//
// A spinning Proc's events are its slice ends and its wake-ups, one
// pending at a time, and two Procs spinning on one kernel, such as a
// polling client and a polling echo server, keep each other from
// advancing in place: every wait is a queued event. Those events skip
// the heap. Each spinning Proc owns one arena slot, its spin slot, whose
// key waits in a side queue beside the heap (Kernel.spins, kept in
// (time, seq) order and as short as the number of spinning Procs).
// Proc.SpinAfter arms it with a callback, such as a slice end's
// accounting, that its wake-up follows; Resume of a spinning Proc arms
// it with the wake-up alone. The key takes its sequence number from the
// kernel's counter exactly when schedule would have, and every read of
// the queue's head merges the side queue with the heap's top: the
// dispatch loop (due, step), Advance, the in-place wake-up's
// same-instant check (ResumeInPlace), NextEventAt, Idle and
// PendingEvents. So every event runs with the key, and in the order, it
// had in the heap, every in-place decision and coupling window is the
// same, and Dispatched counts each event as before. Dispatching a slot
// runs its callback, then the wake-up, in place or queued in the same
// slot as ResumeInPlace would, straight into the Proc's step, with no
// heap operation, no wake event and no deferred recover per call: a
// step's panic is recovered once per dispatch loop.
//
// The side queue and the split callback (a slice end's accounting, then
// the wake-up) are kept because both simpler forms measured slower on
// nectar-perf's rtt workload (2-core VM, seed 1, alternating 6 s pairs).
// Keeping slot events in the heap, with no side queue, fell from 93.6k
// to 85.2k msgs/s (-9.0%; the current form won 7 of 8 pairs, and
// allocs/msg rose from 3.704 to 3.726). Slots that run the heap's
// callback, with threads.Sched.sliceEnd folded back into sliceDone and
// one SpinAfter callback, fell from 99.7k to 92.8k (-6.9%, 6 of 6 pairs).
//
// # Poll streams
//
// A spinning Proc whose step has settled into a loop of two computes, a
// then b, that nothing but its own events can change, such as a host
// polling a word in CAB memory, need not run its step at all: every
// event of the loop follows from the queue's head by arithmetic.
// Proc.Stream turns such a step into a poll stream where the step would
// next start a. The stream's pending key stays in the Proc's spin slot
// in Kernel.spins, so every head read above already merges it, and the
// slot's event is marked inStream. Dispatching it (stepStreams) does
// what the slot's callback, the wake-up and the step would do, by one
// rule, with bound the earliest of the loop's bound and every other
// queued key:
//
//   - a slice end at now takes the sequence number of the wake-up, which
//     runs in place, and counts in Dispatched, when now is below bound
//     and no Proc is current (ResumeInPlace), and is queued in the slot
//     at now otherwise;
//   - a wake-up runs the computes on from now: each of d advances in
//     place when now+d is below bound (Advance), whole cycles of a and b
//     in one jump, and the first that does not becomes a slice that
//     takes the next sequence number, with its key at its end.
//
// So every key, every sequence number and Dispatched are the loop's,
// while no step, slice-end callback, SpinAfter or owner's accounting
// runs. While only streams are due, the heap's top stays put, and the
// dispatch loop keeps the clock and the counters in locals.
//
// The loop's own state (the CPU time it charged, its bus words, its
// slice and its phase) is left where the stream began until something
// can observe it. Every observer first settles the stream
// (Stream.Settle, Proc.Settle): the slot becomes the loop's own again,
// under the same key, a slice end with its callback or a queued
// wake-up, and the owner (StreamOwner.Settled) charges every compute
// that is done and restores the slice of the last. The kernel's own
// observers are the slot's Timer (Pending, Stop) and a Resume of the
// Proc; the owners name theirs (threads.Thread.Stream, hostif's
// WaitPoll). After a settle the step runs on from the slot, and it may
// start a new stream at its next loop. NextEventAt, PendingEvents and
// every horizon read the stream's key in the side queue, as they read a
// slot's, so they observe nothing to settle.
//
// # Servers
//
// Most Procs of a protocol stack are servers: a brief burst of work per
// message, then a wait, for the whole life of the simulation. A Go Proc
// holds a coroutine, and a parked goroutine, from its start to its end,
// so an idle server would hold one forever. Kernel.Serve starts a Proc
// that waits for work as a Spin step (Server.Step) and has no coroutine
// while it waits. When a step finds work, the wake event lends the Proc
// a coroutine from the kernel's pool and runs Server.Handle on it,
// because a handler may block; when a later step starts a wait, the
// coroutine goes back to the pool. Go Procs take their coroutines from
// the pool too and give them back when their bodies return. The pool
// keeps at most a few idle coroutines (maxIdleCoros) and ends the rest.
// It is per kernel: under a Coupling one domain owns a kernel, so one
// goroutine at a time uses its pool. A server's start event and every wake-up are
// the ones the straight-line loop would schedule, so event order,
// Dispatched and every result are unchanged; Resumes drops, and so does
// the number of goroutines a simulation leaves parked.
//
// # Waits drive the loop
//
// A switch into a coroutine and back costs two runtime.coroswitch calls
// (BenchmarkProcHandoff). So a Proc that blocks (Suspend, Wait, Spin)
// does not hand control back at once. With the kernel context restored
// (no Proc current), it pops and runs the events ahead of its wake-up
// itself, on its own coroutine, exactly as the kernel's loop would and up
// to the same bound. When its own wake-up comes up it returns into its
// body without a switch; a spinning Proc returns only once its step is
// done.
//
// When a wake-up it dispatched must switch into another Proc, the
// driving Proc switches into it itself, from its own coroutine, before
// it pops anything else, and stays in its wait as the caller. When that
// Proc hands control back (it finished, or a server's step started a
// wait), the waiting Proc drives on. So hand-offs nest: the kernel's
// goroutine switched into the Proc at the bottom of a chain, and each
// Proc on it is suspended inside a switch into the one above, up to the
// one that runs. Each Proc on the chain is marked nested and is never
// entered again, so a chain holds each Proc at most once. When a Proc
// waits and reaches the wake-up of a Proc lower on the chain, that Proc
// must run next, and only its callee can switch back into it: each Proc
// above it yields in turn, staying blocked, until the woken Proc returns
// into its body. A Proc that yielded this way is off the chain, and a
// later wake-up switches into it as into any other. At the loop's bound,
// on a failure and after a driven panic, the whole chain unwinds to the
// kernel's goroutine, so a run or a Coupling window never ends with a
// coroutine suspended inside another. A server still gives its
// coroutine back when a step starts a wait.
//
// A panic in a driven event is recovered on the coroutine and raised
// again, with the same value, on the kernel's goroutine once the chain
// has unwound, leaving every Proc on it blocked, as it would be had the
// kernel's loop run the event. Every event runs in the same order with
// the same (time, seq) key, and Dispatched is unchanged; only Resumes
// drops.
//
// A callback whose last act is a wake-up can go one step further with
// Proc.ResumeInPlace: when no other event is queued at the current
// instant, in the heap or a spin slot, the wake event Resume would
// schedule is the next one the loop dispatches, so it runs at once,
// inside the callback. It takes the sequence number that event would
// have and counts in Dispatched, so every other event keeps its key;
// only the queue operations go.
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

// event is one slot in the kernel's event arena. Slots are recycled through
// a free list; gen distinguishes successive occupancies so stale Timer
// handles are detected without per-timer allocation.
type event struct {
	fn      func()
	gen     uint64
	heapIdx int32 // index into Kernel.heap while queued, inSpins in a spin slot, inStream in a poll stream
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
	if e.heapIdx == inStream {
		k.settleSlot(t.slot)
	}
	if e.gen != t.gen {
		return false
	}
	if e.heapIdx == inSpins {
		k.spinRemove(t.slot)
		k.spinDone(e)
		return true
	}
	k.heapRemove(int(e.heapIdx))
	k.freeSlot(t.slot)
	return true
}

// Pending reports whether the timer has not yet fired or been stopped.
// A poll stream's Timer settles the stream first.
func (t Timer) Pending() bool {
	k := t.k
	if k == nil {
		return false
	}
	e := &k.arena[t.slot]
	if e.heapIdx == inStream {
		k.settleSlot(t.slot)
	}
	return e.gen == t.gen
}

// Kernel is the discrete-event simulation kernel.
type Kernel struct {
	now Time
	seq uint64
	// limit is the exclusive time bound of the dispatch loop in progress
	// (runBounded's argument), 0 when the kernel is not running or has
	// failed. Advance never moves the clock to or past it, and a nonzero
	// limit at runBounded's entry means Run was re-entered.
	limit Time //nectar:shard-owned
	// The event heap, arena, and free list are per-shard state under
	// PDES sharding (one kernel per domain): //nectar:shard-owned makes
	// shardsafe reject any access that cannot prove same-domain
	// ownership through a receiver/parameter chain.
	heap []heapEntry //nectar:shard-owned
	// spins are the spin slots, the side queue beside the heap: the
	// pending slice end or queued wake-up of each spinning Proc, in
	// (at, seq) order (the package doc, "Spin slots").
	spins []spinEntry //nectar:shard-owned

	arena []event //nectar:shard-owned
	free  []int32 //nectar:shard-owned

	// steps counts dispatched events for the whole life of the kernel: the
	// profiler's sampling counter on the dispatch loop. One increment per
	// event — cheap enough to stay unconditional.
	steps uint64 //nectar:shard-owned
	// resumes counts switches into a Proc's coroutine (Resumes).
	resumes uint64 //nectar:shard-owned

	procs   map[*Proc]struct{} // live procs (for deadlock reporting)
	current *Proc              // proc currently executing, nil = kernel loop
	// driving is set while a waiting Proc runs the dispatch loop on its
	// own coroutine (Proc.drive). A wake-up dispatched then does not
	// switch: it leaves its Proc in woken, and the driving Proc returns
	// into its body if that is itself, switches into it if it is off the
	// chain, and yields if it is lower on the chain (Proc.yield).
	// panicked carries a driven event's panic down the chain to the
	// kernel's goroutine.
	driving  bool  //nectar:shard-owned
	woken    *Proc //nectar:shard-owned
	panicked any   //nectar:shard-owned
	// coros are the idle coroutines Procs borrow to run body code
	// (bind). The pool is per kernel because one domain owns a kernel.
	coros   []*coro //nectar:shard-owned
	failure error   // a proc panicked or Fatalf was called
	// Opaque slot for the observability layer (internal/obs). Traces and
	// metrics are per-domain under PDES sharding (merged at the end of
	// the run), so the slot is shard-owned like the heap.
	observer any //nectar:shard-owned

	// Under a Coupling the domains' kernels are allocated back to back
	// and run on different cores. A cache line of padding keeps one
	// kernel's fields off the line that holds its neighbour's clock, so a
	// kernel reading its own state (failure in every dispatch, limit in
	// every Advance) never misses on the other's writes.
	_ [64]byte
}

// SetObserver attaches an opaque observability object to the kernel. The
// kernel never inspects it; it exists so layers sharing a kernel can find
// the same observer without the sim package importing internal/obs.
func (k *Kernel) SetObserver(o any) { k.observer = o }

// Observer returns the object installed with SetObserver (nil if none).
func (k *Kernel) Observer() any { return k.observer }

// NewKernel creates an empty kernel at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{procs: make(map[*Proc]struct{}), spins: make([]spinEntry, 0, spinsCap)}
}

// spinsCap is the spin slots' initial capacity: two hosts polling on one
// kernel, with room to spare, so that polling does not grow the queue.
const spinsCap = 4

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
	slot := k.newSlot()
	e := &k.arena[slot]
	e.fn = fn
	k.heapPush(heapEntry{at: at, seq: k.seq, slot: slot})
	return slot
}

// newSlot takes an arena slot from the free list, or grows the arena.
//
//nectar:hotpath
func (k *Kernel) newSlot() int32 {
	if n := len(k.free); n > 0 {
		slot := k.free[n-1]
		k.free = k.free[:n-1]
		return slot
	}
	k.arena = append(k.arena, event{})
	return int32(len(k.arena) - 1)
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

// Fatalf aborts the simulation with an error; Run returns it. It also
// clears the dispatch bound, so a Proc that fails keeps no inline
// Advance: it runs only up to its next block, as it would have if every
// compute slice were an event.
func (k *Kernel) Fatalf(format string, args ...any) {
	if k.failure == nil {
		k.failure = fmt.Errorf(format, args...)
	}
	k.limit = 0
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

// step pops and executes the earliest event, from the heap or the spin
// slots; the queue must not be empty.
//
//nectar:hotpath
func (k *Kernel) step() {
	if k.spinFirst() {
		k.stepSpin()
		return
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
}

// Dispatched reports how many events the kernel has executed since
// creation — the dispatch-loop sampling counter wall-clock profiling
// (internal/prof) uses to attribute events to windows and shards. It
// counts every logical event: one dispatched from the heap or from a
// spin slot, and a wake-up run in place (Proc.ResumeInPlace).
func (k *Kernel) Dispatched() uint64 { return k.steps }

// Resumes reports how many times the kernel has switched into a Proc's
// coroutine since creation, from its own goroutine or from another
// Proc's wait. A wake-up whose Spin step is not yet done runs the step
// in kernel context and is not counted, and neither is a wake-up that
// the waiting Proc's own dispatch loop reaches, or that unwinds a chain
// of nested Procs down to it: it returns into the body on the coroutine
// it is already on (the package doc, "Waits drive the loop").
//
//nectar:api coroutine-switch count the 11-resume pin and the serve tests read; no gauge behind it
func (k *Kernel) Resumes() uint64 { return k.resumes }

// Run executes events until the queue is empty. It returns an error if a
// proc panicked or Fatalf was called. If the queue drains while procs are
// still blocked, Run returns a deadlock error naming them (an idle Proc,
// one its Describer describes as "", is not blocked) — models that
// want an idle-but-alive system (e.g. a server waiting forever) should
// stop via RunUntil instead.
func (k *Kernel) Run() error {
	if err := k.runBounded(MaxTime); err != nil {
		return err
	}
	if names := k.blockedNames(nil); len(names) > 0 {
		return deadlock(k.now, names)
	}
	return nil
}

// RunUntil executes events with timestamps <= horizon and then advances the
// clock to horizon. Blocked procs are not a deadlock under RunUntil.
func (k *Kernel) RunUntil(horizon Time) error {
	if err := k.runBounded(horizon + 1); err != nil {
		return err
	}
	k.advanceTo(horizon)
	return nil
}

// RunFor is RunUntil(Now()+d).
//
//nectar:api the single-kernel driver of every layer's unit tests; clusters run through Coupling.RunFor
func (k *Kernel) RunFor(d Duration) error { return k.RunUntil(k.now + Time(d)) }

// blockedNames appends the blocked procs, with their blocking labels, to
// names. A suspended Proc whose Describer describes it as "" is idle, not
// blocked, and is left out.
func (k *Kernel) blockedNames(names []string) []string {
	for p := range k.procs {
		if l := p.label(); l != "" {
			names = append(names, p.name+"@"+l)
		}
	}
	return names
}

// deadlock is the one deadlock report, the same for a kernel and for a
// coupling of any number of domains: the blocked procs, sorted.
func deadlock(at Time, names []string) error {
	sort.Strings(names)
	return fmt.Errorf("sim: deadlock at %v: blocked procs: %s", at, strings.Join(names, ", "))
}

// NextEventAt reports the timestamp of the earliest pending event, in the
// heap or a spin slot, or (0, false) when the queue is empty. The
// coupling scheduler uses it to compute each domain's Next Event Time
// without disturbing the queue.
func (k *Kernel) NextEventAt() (Time, bool) {
	switch {
	case k.spinFirst():
		return k.spins[0].at, true
	case len(k.heap) > 0:
		return k.heap[0].at, true
	}
	return 0, false
}

// runBounded executes every event with timestamp strictly less than limit
// and returns without advancing the clock past the last executed event.
// It is the kernel's one dispatch loop: Run and RunUntil finalize after
// it, and a Coupling window scheduler calls it directly, since it may
// still inject events at times >= the current limit before choosing the
// next one. Blocked procs are never a deadlock under runBounded.
func (k *Kernel) runBounded(limit Time) (err error) {
	if k.limit != 0 {
		panic("sim: Run re-entered")
	}
	k.limit = limit
	defer k.endRun(&err)
	for k.due() {
		k.step()
	}
	return k.failure
}

// endRun closes runBounded. A Spin step's panic becomes the run's error
// (stepFailed); any other panic leaves Run as it came.
func (k *Kernel) endRun(err *error) {
	if r := recover(); r != nil {
		if !k.stepFailed(r) {
			k.limit = 0
			panic(r)
		}
		*err = k.failure
	}
	k.limit = 0
}

// due reports whether the dispatch loop in progress runs another event:
// the kernel has not failed and its earliest event, in the heap or a
// spin slot, is below the loop's bound. The kernel's loop and a driving
// Proc's (Proc.drive) both stop when it turns false.
//
//nectar:hotpath
func (k *Kernel) due() bool {
	return k.failure == nil && k.queuedBefore(k.limit)
}

// queuedBefore reports whether an event is queued, in the heap or a spin
// slot, strictly before t.
//
//nectar:hotpath
func (k *Kernel) queuedBefore(t Time) bool {
	return len(k.heap) > 0 && k.heap[0].at < t || len(k.spins) > 0 && k.spins[0].at < t
}

// Advance moves the clock d forward in place, without an event, and
// reports whether it did. It does so only when a Proc is current, now+d
// is below the bound of the dispatch loop in progress, and the earliest
// queued event is strictly later than now+d; the package doc, "Inline
// advance", says why nothing can then tell the difference. Otherwise, or
// when d is negative, the clock stays put, and the caller schedules an
// event at now+d and blocks as usual.
//
//nectar:hotpath
func (k *Kernel) Advance(d Duration) bool {
	if k.current == nil || d < 0 || Time(d) >= k.limit-k.now {
		return false
	}
	at := k.now + Time(d)
	if k.queuedBefore(at + 1) {
		return false
	}
	k.now = at
	return true
}

// advanceTo finalizes the clock at t (>= now) without executing events.
// The coupling scheduler calls it when a run horizon is reached so that
// Now() agrees across domains even if a domain had no events this window.
func (k *Kernel) advanceTo(t Time) {
	if t > k.now {
		k.now = t
	}
}

// PendingEvents returns the number of live events in the queue, the heap
// and the spin slots. Stopped timers are removed eagerly, so this is
// simply the queues' length — O(1), where it used to scan the queue
// filtering dead entries.
//
//nectar:api queue-length oracle of the sim, threads, hostif and tcp tests; no gauge behind it
func (k *Kernel) PendingEvents() int { return len(k.heap) + len(k.spins) }
