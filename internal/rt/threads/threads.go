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
// One Sched instance models one CPU (a CAB's SPARC, or a host's CPU). All
// scheduler state is manipulated from kernel context or from the currently
// running thread, so no Go-level locking is required.
package threads

import (
	"container/heap"

	"nectar/internal/model"
	"nectar/internal/obs"
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

type state int

const (
	stateReady state = iota
	stateRunning
	stateBlocked
	stateDone
)

// Thread is a single thread of control on one Sched.
type Thread struct {
	sched     *Sched
	name      string // empty for an interrupt handler, named by src
	prio      Priority
	proc      *sim.Proc
	wake      *sim.Signal
	state     state
	remaining sim.Duration // unconsumed demand of the current Compute call
	seq       uint64       // FIFO tie-break within a priority
	heapIdx   int
	cpuTime   sim.Duration // total CPU time consumed (stats)
	epoch     uint64       // incremented at each Block; guards stale wakeups

	// An interrupt handler is a pooled thread: between interrupts it is
	// parked on its Sched's free list, and RaiseInterrupt hands it the
	// source name and the job.
	intr    bool
	src     string
	handler func(t *Thread)

	// The current Block's reason, formatted as "kind:name" only when a
	// deadlock report asks (Describe).
	blockKind, blockName string

	// Join's exit lock and condition, created by the first Join.
	exitC *Cond
	exitM *Mutex
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

	intrMasked  bool
	pendingIntr []pendingIntr
	maskDepth   int
	handlers    []*Thread // parked interrupt handlers, reused by RaiseInterrupt

	// The context-switch and slice-end events. At most one of each is
	// pending per CPU, for switchTo and running, so one callback each,
	// built in New, serves every thread.
	switchDoneFn, sliceDoneFn func()

	waiterFree []*waiter // Cond and Sleep records ready for reuse

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
	s.obs = obs.Ensure(k)
	m := s.obs.Metrics()
	m.Gauge(obs.LayerSched, "context_switches", name, func() uint64 { return s.switches })
	m.Gauge(obs.LayerSched, "interrupts", name, func() uint64 { return s.interrupts })
	m.Gauge(obs.LayerSched, "busy_ns", name, func() uint64 { return uint64(s.busyTime.Nanos()) })
	return s
}

// Kernel returns the sim kernel this scheduler runs on.
func (s *Sched) Kernel() *sim.Kernel { return s.k }

// Cost returns the scheduler's cost model.
func (s *Sched) Cost() *model.CostModel { return s.cost }

// Name returns the CPU name.
func (s *Sched) Name() string { return s.name }

// Switches returns the number of context switches performed so far.
func (s *Sched) Switches() uint64 { return s.switches }

// Interrupts returns the number of interrupts taken so far.
func (s *Sched) Interrupts() uint64 { return s.interrupts }

// BusyTime returns the total CPU time consumed by threads and switches.
func (s *Sched) BusyTime() sim.Duration { return s.busyTime }

// Fork creates and starts a new thread running fn at the given priority.
// The thread becomes runnable immediately; whether it preempts the caller
// depends on priorities.
func (s *Sched) Fork(name string, prio Priority, fn func(t *Thread)) *Thread {
	if prio >= interruptPriority {
		panic("threads: priority reserved for interrupts")
	}
	t := s.newThread(name, prio, false, fn)
	s.onReady(t)
	return t
}

// newThread creates a thread whose proc waits to be dispatched for the
// first time, runs body and exits. The proc's start event is queued; the
// caller makes the thread ready so that the scheduler can plan, but the
// proc only runs once dispatched.
func (s *Sched) newThread(name string, prio Priority, intr bool, body func(t *Thread)) *Thread {
	t := &Thread{sched: s, name: name, prio: prio, intr: intr, heapIdx: -1}
	t.wake = s.k.NewSignal(name)
	procName := s.name + "/" + name
	if intr {
		procName = s.name + "/intr"
	}
	t.proc = s.k.Go(procName, func(p *sim.Proc) {
		p.Wait(t.wake)
		body(t)
		t.exit()
	})
	t.proc.SetDescriber(t)
	return t
}

// RaiseInterrupt delivers a hardware interrupt: fn runs as a handler that
// preempts any thread. If interrupts are masked, or a handler is already
// running, the interrupt is pended and delivered later (handlers are not
// nested, per §3.1). Callable from kernel context (hardware models) or from
// any thread.
//
// Because handlers never nest, a CPU needs only one handler thread at a
// time: a finished handler parks on the Sched's free list and the next
// interrupt reuses it, so taking an interrupt creates no thread.
func (s *Sched) RaiseInterrupt(name string, fn func(t *Thread)) {
	if s.intrMasked || s.interruptActive() {
		s.pendingIntr = append(s.pendingIntr, pendingIntr{name, fn})
		return
	}
	s.interrupts++
	if s.obs.Tracing() {
		s.obs.InstantArg(0, obs.LayerSched, "interrupt", s.name+"/"+name, 0, 0)
	}
	var h *Thread
	if n := len(s.handlers); n > 0 {
		h = s.handlers[n-1]
		s.handlers = s.handlers[:n-1]
	} else {
		h = s.newThread("", interruptPriority, true, (*Thread).serveInterrupts)
	}
	h.src = name
	h.handler = fn
	s.onReady(h)
}

// serveInterrupts is an interrupt handler thread's body: run the job it
// was handed, charge the exit cost, then park until RaiseInterrupt hands
// it the next one.
func (t *Thread) serveInterrupts() {
	s := t.sched
	for {
		t.handler(t)
		t.Compute(s.cost.InterruptExit)
		t.handler = nil
		s.handlers = append(s.handlers, t)
		// Handler completion: the next pended interrupt, if any, takes
		// this very thread from the free list.
		t.exit()
		t.proc.Park(t.wake)
	}
}

// interruptActive reports whether an interrupt handler is running, ready,
// or mid-context-switch. The switchTo check matters: during the switch
// the incoming handler is in none of the queues, and missing it would let
// a newly raised interrupt jump ahead of already-pended ones, reordering
// frame delivery.
func (s *Sched) interruptActive() bool {
	if s.running != nil && s.running.intr {
		return true
	}
	if s.switchTo != nil && s.switchTo.intr {
		return true
	}
	for _, t := range s.ready {
		if t.intr {
			return true
		}
	}
	return false
}

func (s *Sched) drainPendingIntr() {
	if s.intrMasked || len(s.pendingIntr) == 0 || s.interruptActive() {
		return
	}
	pi := s.pendingIntr[0]
	s.pendingIntr = removeAt(s.pendingIntr, 0)
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
// by its Block reason, any other by the wake-up it waits for.
func (t *Thread) Describe() string {
	if t.state != stateBlocked {
		return "waiting:wake:" + t.Name()
	}
	return t.blockReason()
}

// blockReason formats the reason given to the latest Block.
func (t *Thread) blockReason() string {
	if t.blockKind == "" {
		return t.blockName
	}
	return t.blockKind + ":" + t.blockName
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
func (t *Thread) CPUTime() sim.Duration { return t.cpuTime }

// Compute consumes d of CPU time. The thread may be preempted by
// higher-priority threads or interrupts and resumed; Compute returns only
// after the full demand has been consumed.
//
//nectar:hotpath
func (t *Thread) Compute(d sim.Duration) {
	if d <= 0 {
		return
	}
	s := t.sched
	t.assertRunning("Compute")
	t.remaining = d
	if s.preemptible(t) {
		// A higher-priority thread became ready while we ran in zero time
		// (e.g. we just woke it): give up the CPU before computing.
		s.requeue(t)
		s.startSwitch(s.pop())
	} else {
		s.beginSlice(t)
	}
	t.proc.Wait(t.wake)
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
	s := t.sched
	t.assertRunning("Block")
	t.blockKind, t.blockName = kind, name
	if t.intr {
		sim.Panicf("threads: interrupt handler %q attempted to block (%s)", t.Name(), t.blockReason())
	}
	t.epoch++
	t.state = stateBlocked
	s.running = nil
	s.dispatchNext()
	t.proc.Wait(t.wake)
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
	t.proc.Wait(t.wake)
}

// Join blocks until u terminates.
func (t *Thread) Join(u *Thread) {
	if u.exitM == nil {
		u.exitM = NewMutex(u.sched.name + "/" + u.name + ".exit")
		u.exitC = NewCond(u.sched, u.name+".exit")
	}
	u.exitM.Lock(t)
	for u.state != stateDone {
		u.exitC.Wait(t, u.exitM)
	}
	u.exitM.Unlock(t)
}

// Done reports whether the thread has terminated.
func (t *Thread) Done() bool { return t.state == stateDone }

// DisableInterrupts masks interrupt delivery (nestable). The paper's
// interrupt-time protocol code uses this to protect critical sections.
func (t *Thread) DisableInterrupts() {
	t.sched.maskDepth++
	t.sched.intrMasked = true
}

// EnableInterrupts unmasks interrupt delivery and delivers pended
// interrupts.
func (t *Thread) EnableInterrupts() {
	s := t.sched
	if s.maskDepth > 0 {
		s.maskDepth--
	}
	if s.maskDepth == 0 {
		s.intrMasked = false
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

func (t *Thread) assertRunning(op string) {
	if t.sched.running != t {
		sim.Panicf("threads: %s by %q which is not the running thread", op, t.Name())
	}
	if t.state != stateRunning {
		sim.Panicf("threads: %s by %q in state %d", op, t.Name(), t.state)
	}
}

// --- Scheduler internals ---

// preemptible reports whether a strictly higher-priority thread is ready.
func (s *Sched) preemptible(t *Thread) bool {
	return len(s.ready) > 0 && s.ready[0].prio > t.prio
}

// onReady makes t runnable and preempts the running thread if warranted.
func (s *Sched) onReady(t *Thread) {
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
		t.wake.Signal()
	}
}

// beginSlice starts consuming the running thread's compute demand.
//
//nectar:hotpath
func (s *Sched) beginSlice(t *Thread) {
	s.sliceStart = s.k.Now()
	s.sliceTimer = s.k.After(t.remaining, s.sliceDoneFn)
}

// sliceDone fires when the running thread's demand is fully consumed; the
// thread keeps the CPU and resumes zero-time execution.
func (s *Sched) sliceDone() {
	t := s.running
	t.cpuTime += t.remaining
	s.busyTime += t.remaining
	t.remaining = 0
	s.sliceTimer = sim.Timer{}
	t.wake.Signal()
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
func (h threadHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *threadHeap) Push(x any) {
	t := x.(*Thread)
	t.heapIdx = len(*h)
	*h = append(*h, t)
}
func (h *threadHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.heapIdx = -1
	*h = old[:n-1]
	return t
}
