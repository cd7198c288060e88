package sim

import (
	"iter"
	"runtime/debug"
)

// Proc is a simulated sequential activity backed by a coroutine: an
// iter.Pull pair whose next and yield switch with runtime.coroswitch, so a
// switch involves no scheduler handoff and no allocation. The kernel runs
// at most one Proc at a time; a Proc runs until it blocks (Sleep, Wait,
// WaitTimeout, Park) or returns, at which point control returns to the
// event that resumed it.
//
// Proc methods that block must only be called from within that Proc's own
// body function.
//
// A Proc is resumed by whichever goroutine executes its kernel's events:
// the caller of Run, or, under a Coupling, the domain's worker goroutine in
// parallel windows and the coordinator in inline windows. iter.Pull allows
// a coroutine to be resumed from different goroutines as long as two
// resumptions never overlap, and the coupling's window barrier guarantees
// they do not.
type Proc struct {
	k    *Kernel
	name string
	fn   func(p *Proc) // the body, until the start event hands it over

	next    func() (struct{}, bool) // resumes the coroutine
	yieldFn func(struct{}) bool     // suspends it; valid inside the body
	wakeFn  func()                  // p.dispatch, built once so wake-ups do not allocate

	// Deadlock reports format the blocking label lazily from these.
	state procState
	on    *Signal   // what a waiting Proc waits on
	desc  Describer // if set, describes a waiting Proc instead of on
	dead  bool
}

// procState is what a Proc is doing, for deadlock reports.
type procState uint8

const (
	procStarting procState = iota
	procRunning
	procSleeping
	procWaiting        // Wait on p.on
	procWaitingTimeout // WaitTimeout on p.on
	procParked         // Park on p.on: idle, not blocked
)

// A Describer says, in deadlock reports, what a waiting Proc is blocked
// on. It is consulted only when a report is built, so blocking formats no
// label. Layers that multiplex their own blocking reasons over one Signal
// (the threads package's per-thread wake-up) install one with
// SetDescriber.
type Describer interface {
	Describe() string
}

// SetDescriber makes deadlock reports describe p, while it waits, with
// d.Describe() instead of the name of the Signal it waits on.
func (p *Proc) SetDescriber(d Describer) { p.desc = d }

// Go starts a new Proc running fn. The Proc begins executing at the current
// virtual time, after already-scheduled events for this instant.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, fn: fn}
	p.wakeFn = p.dispatch
	k.procs[p] = struct{}{}
	k.schedule(k.now, p.start)
	return p
}

// start is the Proc's first event: it creates the coroutine and runs the
// body up to its first blocking point. Creating the coroutine here rather
// than in Go keeps its cost with the first run, not with set-up.
func (p *Proc) start() {
	p.next, _ = iter.Pull(p.body)
	p.dispatch()
}

// body is the coroutine: run fn, then mark the Proc finished. A panic is
// recovered here, inside the coroutine, and becomes Run's error.
func (p *Proc) body(yield func(struct{}) bool) {
	p.yieldFn = yield
	defer func() {
		if r := recover(); r != nil {
			p.k.Fatalf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
		}
		p.dead = true
		delete(p.k.procs, p)
		p.k.current = nil
	}()
	p.state = procRunning
	fn := p.fn
	p.fn = nil
	fn(p)
}

// dispatch transfers control from kernel context to the proc and returns
// when it yields back. Must be called from kernel context (inside an
// event). Dispatching a finished proc is a no-op.
//
//nectar:hotpath
func (p *Proc) dispatch() {
	if p.dead {
		return
	}
	p.k.current = p
	p.next()
}

// checkContext panics unless the caller is p's own body, which is the only
// context from which blocking operations are legal.
func (p *Proc) checkContext(op string) {
	if p.k.current != p {
		Panicf("sim: %s on proc %q from outside its coroutine", op, p.name)
	}
}

// yield transfers control from the proc back to the event that resumed it
// and returns when the proc is dispatched again. state and on record what
// the proc waits for.
//
//nectar:hotpath
func (p *Proc) yield(state procState, on *Signal) {
	if p.k.current != p {
		Panicf("sim: blocking call on proc %q from outside its coroutine", p.name)
	}
	p.state = state
	p.on = on
	p.k.current = nil
	p.yieldFn(struct{}{})
	p.k.current = p
	p.state = procRunning
}

// label formats p's blocking state for a deadlock report.
func (p *Proc) label() string {
	switch p.state {
	case procStarting:
		return "starting"
	case procSleeping:
		return "sleeping"
	case procWaiting, procWaitingTimeout:
		if p.desc != nil {
			return p.desc.Describe()
		}
		if p.state == procWaitingTimeout {
			return "waiting-timeout:" + p.on.name
		}
		return "waiting:" + p.on.name
	case procParked:
		return "parked"
	}
	return "running"
}

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this proc runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep blocks the proc for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.checkContext("Sleep")
	if d < 0 {
		d = 0
	}
	p.k.schedule(p.k.now+Time(d), p.wakeFn)
	p.yield(procSleeping, nil)
}

// Wait blocks until s is signaled. Multiple procs may wait on one Signal;
// Signal.Signal wakes exactly one (FIFO), Signal.Broadcast wakes all.
//
//nectar:hotpath
func (p *Proc) Wait(s *Signal) {
	p.checkContext("Wait")
	s.waiters = append(s.waiters, p)
	p.yield(procWaiting, s)
}

// Park is Wait for a Proc that is idle rather than blocked, such as a
// pooled worker between jobs: a parked Proc is not a deadlock, and
// deadlock reports leave it out.
func (p *Proc) Park(s *Signal) {
	p.checkContext("Park")
	s.waiters = append(s.waiters, p)
	p.k.parked++
	p.yield(procParked, s)
	p.k.parked--
}

// WaitTimeout blocks until s is signaled or d elapses. It reports true if
// the signal arrived, false on timeout.
func (p *Proc) WaitTimeout(s *Signal, d Duration) bool {
	p.checkContext("WaitTimeout")
	k := p.k
	var w *timedWaiter
	if n := len(k.timedFree); n > 0 {
		w = k.timedFree[n-1]
		k.timedFree = k.timedFree[:n-1]
	} else {
		w = &timedWaiter{}
		w.onTimeout, w.onSignal = w.timeout, w.signal
	}
	w.p, w.done, w.signaled, w.queued, w.waiting = p, false, false, true, true
	s.timed = append(s.timed, w)
	w.timer = k.After(d, w.onTimeout)
	p.yield(procWaitingTimeout, s)
	signaled := w.signaled
	w.waiting = false
	w.release()
	return signaled
}

// timedWaiter is one WaitTimeout call's entry on a Signal. Records are
// pooled per kernel; one returns to the pool once nothing refers to it:
// not the Signal's queue or a wake-up event the Signal scheduled for it
// (queued), not the waiting proc (waiting), and not its timer, which has
// fired or been stopped by the time both of the others let go.
type timedWaiter struct {
	p        *Proc
	timer    Timer
	done     bool // woken, by the signal or the timeout
	signaled bool
	queued   bool
	waiting  bool

	onTimeout, onSignal func() // w.timeout and w.signal, built once per record
}

// timeout is the record's timer callback.
func (w *timedWaiter) timeout() {
	if w.done {
		return
	}
	w.done = true
	w.p.dispatch()
}

// signal is the wake-up event a Signal or Broadcast schedules for the
// record.
func (w *timedWaiter) signal() {
	w.queued = false
	if w.done {
		w.release()
		return
	}
	w.done = true
	w.signaled = true
	w.timer.Stop()
	w.p.dispatch()
}

// release returns the record to its kernel's pool once nothing refers to
// it.
func (w *timedWaiter) release() {
	if w.queued || w.waiting {
		return
	}
	k := w.p.k
	w.p = nil
	k.timedFree = append(k.timedFree, w)
}

// Signal is a stateless wake-up point, akin to a condition variable: Wait
// always blocks; Signal/Broadcast wake current waiters only. Guard it with
// model-level state, exactly as with a condition variable.
type Signal struct {
	k       *Kernel
	name    string
	waiters []*Proc
	timed   []*timedWaiter
}

// NewSignal creates a named Signal for procs on k.
func (k *Kernel) NewSignal(name string) *Signal {
	return &Signal{k: k, name: name}
}

// Signal wakes one waiter (the longest-waiting first). Wake-ups are
// scheduled at the current instant, after the caller finishes its event.
//
//nectar:hotpath
func (s *Signal) Signal() {
	// Timed waiters are woken before plain waiters only if they registered
	// earlier; for determinism we simply prefer plain FIFO order: plain
	// waiters first, then timed. Models that mix both on one Signal and
	// care about order should use Broadcast.
	if len(s.waiters) > 0 {
		p := s.waiters[0]
		s.waiters = popFront(s.waiters)
		s.k.schedule(s.k.now, p.wakeFn)
		return
	}
	for len(s.timed) > 0 {
		w := s.timed[0]
		s.timed = popFront(s.timed)
		if w.done {
			// Already timed out; not a live waiter.
			w.queued = false
			w.release()
			continue
		}
		s.k.schedule(s.k.now, w.onSignal)
		return
	}
}

// Broadcast wakes all current waiters in FIFO order.
func (s *Signal) Broadcast() {
	// Scheduling runs no proc, so nothing joins the queues mid-loop.
	for i, p := range s.waiters {
		s.k.schedule(s.k.now, p.wakeFn)
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
	for i, w := range s.timed {
		s.k.schedule(s.k.now, w.onSignal)
		s.timed[i] = nil
	}
	s.timed = s.timed[:0]
}

// HasWaiters reports whether any proc is blocked on s.
func (s *Signal) HasWaiters() bool { return len(s.waiters) > 0 || len(s.timed) > 0 }

// popFront removes q[0] and shifts the rest down, so a FIFO wait queue
// keeps its capacity: a queue drained and refilled never reallocates, as
// one whose head creeps forward with q[1:] does.
func popFront[T any](q []T) []T {
	n := copy(q, q[1:])
	var zero T
	q[n] = zero
	return q[:n]
}
