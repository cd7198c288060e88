// Package threads implements the CAB runtime system's threads package
// (paper §3.1): forking and joining of threads, mutual exclusion locks,
// condition variables, and a preemptive, priority-based scheduler in which
// system threads run at higher priority than application threads and
// interrupt handlers preempt everything.
//
// The package is derived in spirit from the Mach C Threads interface the
// paper's implementation was based on, but executes in virtual time on the
// sim kernel: threads charge CPU time explicitly with Compute, and a full
// context switch costs the paper's measured 20 µs (model.CostModel).
//
// A Compute is a slice: an event at its end, then a wake-up of the
// thread's Proc. When no event is queued before the slice would end, and
// no higher-priority thread is ready, nothing can preempt it, so Compute
// charges the time and moves the clock in place (sim.Kernel.Advance)
// without either event. Virtual time and CPU accounting are the same
// both ways; only the kernel's event count differs. A slice end, like a
// context switch's end, is a callback whose last act wakes its thread,
// and it wakes it in place (sim.Proc.ResumeInPlace): when nothing else
// is queued at that instant, the wake-up runs inside the callback, with
// the sequence number and dispatch count of the event it stands for.
// A spinning thread's slice end (Spin, such as a host's poll loop)
// waits in its Proc's spin slot beside the kernel's heap instead
// (sim.Proc.SpinAfter): the slot runs the slice's accounting (sliceEnd)
// and then the same wake-up, queued or in place, into the thread's step,
// under the key the event would have had in the heap. Preemption stops
// it through its Timer as any other slice end.
//
// A spinning thread whose step has become a loop of two Computes that
// only its own events can change, such as a host's poll loop with its
// bus free, can go one step further (Thread.Stream): the kernel
// dispatches the loop's slice ends and wake-ups as a poll stream, by
// arithmetic and under the same keys (the sim package doc, "Poll
// streams"), and charges nothing until the stream settles. Whatever
// reads the thread's charges or its CPU's slice settles it first:
// readying a thread on the CPU (onReady, and so RaiseInterrupt and
// preempt), the slice Timer, which is the stream's while it runs, the
// Sched's gauges and CPUTime. The stream's owner then charges the
// Computes that are done and restores the last one's slice
// (SettleStream), as the loop would have left them.
//
// A protocol server thread (Serve) is a loop that charges the cost of a
// take, takes the next item of a queue, waits on a Cond while there is
// none, and handles the item. Everything up to the handler runs as a step
// in the thread's wake events, with the Start forms of the blocking calls
// (StartCompute, and the package's own startWait and startBlock), so an
// idle server holds no coroutine; the thread borrows one from the
// kernel's pool only while its handler runs (sim.Kernel.Serve). Each
// server's first dispatch, context switch and charge is the loop's, at
// the same instant.
//
// Interrupt handlers run to completion and never nest, so each CPU has
// one interrupt thread. The first RaiseInterrupt builds it; between
// interrupts it is done and waits suspended, and its Describe is empty,
// so the sim kernel counts it idle rather than blocked.
//
// One Sched instance models one CPU (a CAB's SPARC, or a host's CPU). All
// scheduler state is manipulated from kernel context or from the currently
// running thread, so no Go-level locking is required.
package threads

import (
	"container/heap"
	"fmt"

	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/pool"
	"nectar/internal/sim"
)

// Priority orders threads for dispatch. Higher numeric value wins.
type Priority int

const (
	// AppPriority is for application threads, which may compute for long
	// stretches and are preempted by everything else (paper §3.1).
	AppPriority Priority = 1
	// SystemPriority is for protocol and runtime threads, which are
	// event-driven: a brief burst of processing, then a wait.
	SystemPriority Priority = 2
	// interruptPriority is used internally for interrupt handlers, which
	// run to completion above all threads and are never nested (§3.1).
	interruptPriority Priority = 3
)

type state uint8

const (
	stateReady state = iota
	stateRunning
	stateBlocked
	stateDone
)

// Thread is a single thread of control on one Sched.
type Thread struct {
	sched     *Sched
	name      string // "intr" for an interrupt handler, named by src
	prio      Priority
	proc      *sim.Proc
	state     state
	intr      bool         // an interrupt handler (see below)
	remaining sim.Duration // unconsumed demand of the current Compute call
	seq       uint64       // FIFO tie-break within a priority
	cpuTime   sim.Duration // total CPU time consumed (stats)
	epoch     uint64       // incremented at each Block; guards stale wakeups

	// An interrupt handler is its Sched's one interrupt thread: between
	// interrupts it is done and suspended, and RaiseInterrupt hands it
	// the source name and the job.
	src     string
	handler func(t *Thread)

	// The current Block's reason, formatted as "kind:name" + role only
	// when a deadlock report asks (Describe). blockObj, when set, names
	// the block in place of name + role.
	blockKind, blockName, blockRole string
	blockObj                        fmt.Stringer

	// Join's exit condition, created by the first Join.
	exitC *Cond
}

// Sched is a preemptive priority scheduler modeling one CPU.
type Sched struct {
	k    *sim.Kernel
	cost *model.CostModel
	name string

	ready      threadHeap
	running    *Thread
	sliceTimer sim.Timer
	sliceStart sim.Time
	switching  bool    // a context switch is in progress (CPU busy, uninterruptible)
	switchTo   *Thread // the thread being switched to (not in ready, not yet running)

	intr        *Thread // the interrupt thread, built by the first RaiseInterrupt
	pendingIntr []pendingIntr
	maskDepth   int

	// The context-switch and slice-end events. At most one of each is
	// pending per CPU, for switchTo and running, so one callback each,
	// built in New, serves every thread. sliceEndFn is a spinning
	// thread's slice end, which its spin slot follows with the wake-up.
	switchDoneFn, sliceDoneFn, sliceEndFn func()

	waiterFree pool.FreeList[*waiter] // Cond and Sleep records ready for reuse

	seq        uint64
	switches   uint64 // context-switch count (stats)
	interrupts uint64 // interrupts taken (stats)
	idleSince  sim.Time
	busyTime   sim.Duration

	obs *obs.Observer
}

type pendingIntr struct {
	name string
	fn   func(t *Thread)
}

// New creates a scheduler for a CPU named name, charging costs from cost.
func New(k *sim.Kernel, cost *model.CostModel, name string) *Sched {
	s := &Sched{k: k, cost: cost, name: name}
	s.switchDoneFn = s.switchDone
	s.sliceDoneFn = s.sliceDone
	s.sliceEndFn = s.sliceEnd
	s.obs = obs.Ensure(k)
	s.obs.Metrics().Register(s)
	return s
}

// Gauges reports the CPU's context switches, interrupts and busy time
// (obs.Source).
func (s *Sched) Gauges(emit func(layer obs.Layer, name, scope string, v uint64)) {
	s.settle()
	emit(obs.LayerSched, "context_switches", s.name, s.switches)
	emit(obs.LayerSched, "interrupts", s.name, s.interrupts)
	emit(obs.LayerSched, "busy_ns", s.name, uint64(s.busyTime.Nanos()))
}

// Cost returns the scheduler's cost model.
func (s *Sched) Cost() *model.CostModel { return s.cost }

// Name returns the CPU name.
func (s *Sched) Name() string { return s.name }

// Switches returns the number of context switches performed so far.
//
//nectar:api cmd/nectar-perf calls it; that module is the benchmark's and builds against this tree
func (s *Sched) Switches() uint64 { return s.switches }

// Fork creates and starts a new thread running fn at the given priority.
// The thread becomes runnable immediately; whether it preempts the caller
// depends on priorities.
func (s *Sched) Fork(name string, prio Priority, fn func(t *Thread)) *Thread {
	if prio >= interruptPriority {
		panic("threads: priority reserved for interrupts")
	}
	t := &Thread{sched: s, name: name, prio: prio}
	s.start(t, fn)
	return t
}

// start starts t's proc, which waits to be dispatched for the first
// time, runs body and exits, and makes t ready. The proc's start event
// is queued; the thread is ready at once so that the scheduler can plan,
// but the proc only runs once dispatched.
func (s *Sched) start(t *Thread, body func(t *Thread)) {
	t.proc = s.k.Go(s.name+"/"+t.name, func(p *sim.Proc) {
		p.Suspend()
		body(t)
		t.exit()
	})
	t.proc.SetDescriber(t)
	s.onReady(t)
}

// RaiseInterrupt delivers a hardware interrupt: fn runs as a handler that
// preempts any thread. If interrupts are masked, or a handler is already
// running, the interrupt is pended and delivered later (handlers are not
// nested, per §3.1). Callable from kernel context (hardware models) or from
// any thread.
//
// Because handlers never nest, a CPU needs only one handler thread: the
// first interrupt builds it, a finished handler waits suspended for the
// next, and taking an interrupt creates no thread.
func (s *Sched) RaiseInterrupt(name string, fn func(t *Thread)) {
	if s.maskDepth > 0 || s.interruptActive() {
		s.pendingIntr = append(s.pendingIntr, pendingIntr{name, fn})
		return
	}
	s.interrupts++
	if s.obs.Tracing() {
		s.obs.InstantArg(0, obs.LayerSched, "interrupt", s.name+"/"+name, 0, 0)
	}
	if s.intr == nil {
		s.intr = &Thread{sched: s, name: "intr", prio: interruptPriority, intr: true, src: name, handler: fn}
		s.start(s.intr, (*Thread).serveInterrupts)
		return
	}
	s.intr.src, s.intr.handler = name, fn
	s.onReady(s.intr)
}

// serveInterrupts is the interrupt thread's body: run the job it was
// handed, charge the exit cost, then wait until RaiseInterrupt hands it
// the next one.
func (t *Thread) serveInterrupts() {
	s := t.sched
	for {
		t.handler(t)
		t.Compute(s.cost.InterruptExit)
		t.handler = nil
		// Handler completion: the next pended interrupt, if any, makes
		// this very thread ready again before exit dispatches.
		t.exit()
		t.proc.Suspend()
	}
}

// interruptActive reports whether an interrupt handler is running, ready,
// or mid-context-switch: the interrupt thread is done only between
// interrupts. A handler being switched in is still ready, so a newly
// raised interrupt cannot jump ahead of already-pended ones, which would
// reorder frame delivery.
func (s *Sched) interruptActive() bool {
	return s.intr != nil && s.intr.state != stateDone
}

func (s *Sched) drainPendingIntr() {
	if s.maskDepth > 0 || len(s.pendingIntr) == 0 || s.interruptActive() {
		return
	}
	pi := s.pendingIntr[0]
	s.pendingIntr = sim.PopFront(s.pendingIntr)
	s.RaiseInterrupt(pi.name, pi.fn)
}

// --- Thread API (called from the thread's own context) ---

// Name returns the thread name; an interrupt handler's is "intr:" and the
// source of the interrupt it is serving.
func (t *Thread) Name() string {
	if t.intr {
		return "intr:" + t.src
	}
	return t.name
}

// Describe labels the thread's proc in deadlock reports: a blocked thread
// by its Block reason, a finished interrupt handler as idle (""), any
// other as runnable.
func (t *Thread) Describe() string {
	switch t.state {
	case stateDone:
		if t.intr {
			return ""
		}
	case stateBlocked:
		return t.blockReason()
	}
	return "runnable:" + t.Name()
}

// blockReason formats the reason given to the latest Block.
//
//nectar:hotpath-exempt formats for a panic or a deadlock report only, never on a block's own path
func (t *Thread) blockReason() string {
	name := t.blockName + t.blockRole
	if t.blockObj != nil {
		name = t.blockObj.String()
	}
	if t.blockKind == "" {
		return name
	}
	return t.blockKind + ":" + name
}

// Sched returns the scheduler this thread runs on.
func (t *Thread) Sched() *Sched { return t.sched }

// Now returns the current virtual time.
func (t *Thread) Now() sim.Time { return t.sched.k.Now() }

// Cost returns the cost model (shorthand).
func (t *Thread) Cost() *model.CostModel { return t.sched.cost }

// IsInterrupt reports whether this is an interrupt handler context.
func (t *Thread) IsInterrupt() bool { return t.intr }

// CPUTime returns the total CPU time this thread has consumed.
//
//nectar:api per-thread CPU time the serve and poll oracles of threads, mailbox and hostif compare; no gauge behind it
func (t *Thread) CPUTime() sim.Duration {
	t.proc.Settle()
	return t.cpuTime
}

// Compute consumes d of CPU time. The thread may be preempted by
// higher-priority threads or interrupts and resumed; Compute returns only
// after the full demand has been consumed. When nothing can run before
// now+d (no higher-priority thread is ready and sim.Kernel.Advance finds
// the queue clear past now+d), the demand is consumed in place and
// Compute returns without suspending.
//
//nectar:hotpath
func (t *Thread) Compute(d sim.Duration) {
	if !t.StartCompute(d) {
		t.proc.Suspend()
	}
}

// StartCompute is Compute without the wait: it reports true when the
// demand is already consumed (d <= 0, or consumed in place), and false
// when it has started a slice or a switch away, after which the thread's
// proc is resumed once the full demand is consumed. A Spin step calls it
// where the body would call Compute, and returns false with it.
//
//nectar:hotpath
func (t *Thread) StartCompute(d sim.Duration) bool {
	if d <= 0 {
		return true
	}
	s := t.sched
	t.assertRunning("Compute")
	switch {
	case s.preemptible(t):
		// A higher-priority thread became ready while we ran in zero time
		// (e.g. we just woke it): give up the CPU before computing.
		t.remaining = d
		s.requeue(t)
		s.startSwitch(s.pop())
	case s.k.Advance(d):
		// Nothing can run before now+d: the slice's end and the wake-up
		// would be the next two events, so consume the demand in place.
		t.cpuTime += d
		s.busyTime += d
		return true
	default:
		t.remaining = d
		s.beginSlice(t)
	}
	return false
}

// Spin runs step until it reports done, as a state machine over a loop
// of Computes: step calls StartCompute where the loop would call
// Compute, and returns false when that starts a wait. Every later call
// runs from the thread's wake event rather than in its proc
// (sim.Proc.Spin), so a polling loop costs no coroutine switch per
// iteration, and every event and charge is the loop's.
func (t *Thread) Spin(step func() bool) {
	t.assertRunning("Spin")
	t.proc.Spin(step)
}

// Stream turns t's Spin step, t running, into a poll stream of its loop
// of Computes a then b (sim.Proc.Stream), where the step would next call
// StartCompute(a). It reports false, and starts nothing, when a
// higher-priority thread is ready, so that the loop's next Compute would
// switch away, or when the kernel declines. While the stream runs, the
// CPU's slice Timer is the stream's, and whatever reads the thread's
// charges or its slice (onReady, preempt, Gauges, CPUTime) settles it
// first; the stream's owner calls SettleStream from its Settled.
func (t *Thread) Stream(st *sim.Stream, a, b sim.Duration) bool {
	s := t.sched
	t.assertRunning("Stream")
	if s.preemptible(t) || !t.proc.Stream(st, a, b, s.sliceEndFn) {
		return false
	}
	s.sliceTimer = st.Timer()
	return true
}

// SettleStream charges t the computes of its settled stream st that are
// done, and restores the CPU's slice as the loop left it: the last
// compute's slice pending, or ended with its wake-up queued.
func (t *Thread) SettleStream(st *sim.Stream) {
	s := t.sched
	d := st.Done()
	t.cpuTime += d
	s.busyTime += d
	i, start, pending := st.Last()
	s.sliceStart = start
	t.remaining, s.sliceTimer = 0, sim.Timer{}
	if pending {
		t.remaining, s.sliceTimer = st.Compute(i), st.Timer()
	}
}

// Block releases the CPU and parks the thread until Unblock is called.
// reason is reported in deadlock diagnostics. Interrupt handlers must not
// block (paper §3.3: handlers use the non-blocking operations).
func (t *Thread) Block(reason string) { t.BlockOn("", reason) }

// BlockOn is Block with a reason in two parts, reported as "kind:name"
// (as Block(name) if kind is empty). The reason is only formatted when a
// deadlock report or a panic needs it, so blocking on a named object
// allocates nothing.
func (t *Thread) BlockOn(kind, name string) {
	t.startBlock(kind, name, "", nil)
	t.proc.Suspend()
}

// BlockOnObject is BlockOn with the name given by obj's String method,
// which runs only when a deadlock report or a panic needs the reason: an
// object whose name has several parts blocks a thread without building
// it.
func (t *Thread) BlockOnObject(kind string, obj fmt.Stringer) {
	t.startBlock(kind, "", "", obj)
	t.proc.Suspend()
}

// startBlock is BlockOn without the wait, for a step that returns false
// after it: it releases the CPU and leaves the thread blocked until
// Unblock. role completes name in the reason ("kind:name" + role), and a
// non-nil obj names the block instead.
func (t *Thread) startBlock(kind, name, role string, obj fmt.Stringer) {
	s := t.sched
	t.assertRunning("Block")
	t.blockKind, t.blockName, t.blockRole, t.blockObj = kind, name, role, obj
	if t.intr {
		sim.Panicf("threads: interrupt handler %q attempted to block (%s)", t.Name(), t.blockReason())
	}
	t.epoch++
	t.state = stateBlocked
	s.running = nil
	s.dispatchNext()
}

// Unblock makes a blocked thread runnable. Callable from any context.
func (t *Thread) Unblock() {
	if t.state != stateBlocked {
		return
	}
	t.sched.onReady(t)
}

// Sleep blocks the thread for d of virtual time, releasing the CPU.
func (t *Thread) Sleep(d sim.Duration) {
	t.sched.newWaiter(nil, t).arm(d)
	t.Block("sleep")
}

// Yield releases the CPU to an equal-or-higher-priority ready thread, if
// any, charging a context switch; otherwise it continues immediately.
//
//nectar:api cmd/nectar-perf calls it; that module is the benchmark's and builds against this tree
func (t *Thread) Yield() {
	s := t.sched
	t.assertRunning("Yield")
	if len(s.ready) == 0 || s.ready[0].prio < t.prio {
		return
	}
	t.state = stateReady
	t.remaining = 0
	s.running = nil
	s.enqueue(t)
	s.dispatchNext()
	t.proc.Suspend()
}

// Join blocks until u terminates.
//
//nectar:api C Threads' join, part of the CAB thread package's interface, covered by the threads tests
func (t *Thread) Join(u *Thread) {
	if u.exitC == nil {
		u.exitC = NewCond(u.name + ".exit")
	}
	for u.state != stateDone {
		u.exitC.Wait(t)
	}
}

// Done reports whether the thread has terminated.
//
//nectar:api the threads and tcp lock tests check a thread finished; no gauge behind it
func (t *Thread) Done() bool { return t.state == stateDone }

// DisableInterrupts masks interrupt delivery (nestable). The paper's
// interrupt-time protocol code uses this to protect critical sections.
func (t *Thread) DisableInterrupts() {
	t.sched.maskDepth++
}

// EnableInterrupts unmasks interrupt delivery and delivers pended
// interrupts.
func (t *Thread) EnableInterrupts() {
	s := t.sched
	if s.maskDepth > 0 {
		s.maskDepth--
	}
	if s.maskDepth == 0 {
		s.drainPendingIntr()
	}
}

func (t *Thread) exit() {
	s := t.sched
	t.state = stateDone
	if t.exitC != nil {
		t.exitC.Broadcast()
	}
	s.running = nil
	if t.intr {
		s.drainPendingIntr()
	}
	s.dispatchNext()
	// Proc returns; kernel reclaims it.
}

// assertRunning panics unless t is the running thread. The check is
// small enough to inline into every Compute; notRunning formats the
// panic.
func (t *Thread) assertRunning(op string) {
	if t.sched.running != t || t.state != stateRunning {
		t.notRunning(op)
	}
}

func (t *Thread) notRunning(op string) {
	if t.sched.running != t {
		sim.Panicf("threads: %s by %q which is not the running thread", op, t.Name())
	}
	sim.Panicf("threads: %s by %q in state %d", op, t.Name(), t.state)
}

// --- Scheduler internals ---

// preemptible reports whether a strictly higher-priority thread is ready.
func (s *Sched) preemptible(t *Thread) bool {
	return len(s.ready) > 0 && s.ready[0].prio > t.prio
}

// onReady makes t runnable and preempts the running thread if warranted.
// A running thread's poll stream settles first, so that its slice is the
// loop's.
func (s *Sched) onReady(t *Thread) {
	s.settle()
	t.state = stateReady
	s.enqueue(t)
	switch {
	case s.switching:
		// The CPU is busy switching; the decision is re-made in
		// switchDone, which always picks the highest-priority ready
		// thread.
	case s.running == nil:
		s.dispatchNext()
	case s.sliceTimer.Pending() && s.ready[0].prio > s.running.prio:
		// Preempt the current compute slice.
		s.preempt()
	default:
		// Running thread is in a zero-time window (between Compute
		// calls) or has equal/higher priority. A zero-time window is
		// instantaneous: the preemption check happens at its next
		// Compute or Block.
	}
}

// preempt stops the running thread's slice and switches to the best ready
// thread.
func (s *Sched) preempt() {
	t := s.running
	elapsed := sim.Duration(s.k.Now() - s.sliceStart)
	t.remaining -= elapsed
	t.cpuTime += elapsed
	s.busyTime += elapsed
	if t.remaining < 0 {
		t.remaining = 0
	}
	s.sliceTimer.Stop()
	s.sliceTimer = sim.Timer{}
	s.requeue(t)
	s.startSwitch(s.pop())
}

// settle stops the running thread's poll stream, if it has one
// (Thread.Stream).
func (s *Sched) settle() {
	if t := s.running; t != nil {
		t.proc.Settle()
	}
}

// requeue puts a preempted running thread back on the ready queue.
func (s *Sched) requeue(t *Thread) {
	t.state = stateReady
	s.running = nil
	s.enqueue(t)
}

// dispatchNext switches to the best ready thread, or idles. It is a
// no-op while a switch is already in progress or a thread is running
// (exit's drainPendingIntr may have started a dispatch already).
func (s *Sched) dispatchNext() {
	if s.switching || s.running != nil {
		return
	}
	if len(s.ready) == 0 {
		return // CPU idle
	}
	s.startSwitch(s.pop())
}

// startSwitch charges the context-switch (or interrupt entry) cost and then
// installs t as the running thread.
//
//nectar:hotpath
func (s *Sched) startSwitch(t *Thread) {
	var cost sim.Duration
	if t.intr {
		cost = s.cost.InterruptEntry
	} else {
		cost = s.cost.ContextSwitch
		s.switches++
		if s.obs.Tracing() {
			s.obs.InstantArg(0, obs.LayerSched, "switch", s.name+"/"+t.name, 0, 0)
		}
	}
	s.switching = true
	s.switchTo = t
	s.busyTime += cost
	s.k.After(cost, s.switchDoneFn)
}

// switchDone completes the context switch to switchTo. If an even better
// thread became ready during the switch, the switch is redone (charging
// again).
func (s *Sched) switchDone() {
	t := s.switchTo
	s.switching = false
	s.switchTo = nil
	if len(s.ready) > 0 && s.ready[0].prio > t.prio {
		s.enqueue(t)
		t.state = stateReady
		s.startSwitch(s.pop())
		return
	}
	s.running = t
	t.state = stateRunning
	if t.remaining > 0 {
		s.beginSlice(t)
	} else {
		// Thread resumes zero-time execution (woken from a block, or
		// first dispatch).
		t.proc.ResumeInPlace()
	}
}

// beginSlice starts consuming the running thread's compute demand. A
// spinning thread's slice end waits in its Proc's spin slot, which wakes
// the thread after it (sim.Proc.SpinAfter); any other's is an event.
//
//nectar:hotpath
func (s *Sched) beginSlice(t *Thread) {
	s.sliceStart = s.k.Now()
	s.sliceTimer = t.proc.SpinAfter(t.remaining, s.sliceEndFn, s.sliceDoneFn)
}

// sliceDone fires when the running thread's demand is fully consumed; the
// thread keeps the CPU and resumes zero-time execution.
func (s *Sched) sliceDone() {
	s.sliceEnd()
	s.running.proc.ResumeInPlace()
}

// sliceEnd charges the running thread's demand, now fully consumed.
func (s *Sched) sliceEnd() {
	t := s.running
	t.cpuTime += t.remaining
	s.busyTime += t.remaining
	t.remaining = 0
	s.sliceTimer = sim.Timer{}
}

//nectar:hotpath-exempt container/heap dispatch boxes only the pointer receiver, which does not heap-allocate
func (s *Sched) pop() *Thread {
	return heap.Pop(&s.ready).(*Thread)
}

// enqueue adds t to the ready queue. The FIFO tie-break within a priority
// is by enqueue time, so equal-priority threads round-robin at blocking
// points (and Yield actually yields).
//
//nectar:hotpath-exempt container/heap dispatch boxes only the pointer receiver, which does not heap-allocate
func (s *Sched) enqueue(t *Thread) {
	s.seq++
	t.seq = s.seq
	heap.Push(&s.ready, t)
}

// threadHeap orders by priority (desc), then FIFO by seq.
type threadHeap []*Thread

func (h threadHeap) Len() int { return len(h) }
func (h threadHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h threadHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *threadHeap) Push(x any)   { *h = append(*h, x.(*Thread)) }
func (h *threadHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
