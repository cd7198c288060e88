package sim

import (
	"iter"
	"runtime/debug"
)

// Proc is a simulated sequential activity. The kernel runs at most one
// Proc at a time; a Proc runs until it blocks or returns. When it
// returns, control returns to the event or the Proc that resumed it.
// When it blocks, it runs the events ahead of its wake-up on its own
// coroutine, switches into a Proc whose wake-up it reaches from there,
// and hands control back only when a Proc lower on the chain of such
// switches must run, or the loop stops (the package doc, "Waits drive
// the loop").
//
// A Proc holds a coroutine only while its body code runs. The coroutine
// is an iter.Pull pair whose next and yield switch with
// runtime.coroswitch, so a switch involves no scheduler handoff and no
// allocation; it comes from the kernel's pool and goes back to it when
// the body returns. A Go Proc runs its body once, so it holds a
// coroutine from its start until it finishes, across every block. A
// server Proc (Kernel.Serve) waits for work as a Spin step and borrows a
// coroutine only while its handler runs, so an idle server holds none.
//
// A Proc blocks with Suspend, which waits for a Resume. Resume is the
// one wake-up: it schedules the Proc's prebuilt wake event at the
// current instant. Spin suspends a
// Proc over a loop of such waits, whose body the wake event runs as a
// step (the package doc, "Spin steps"). Wait queues and timeouts are built above
// this (Signal here; Cond, Mutex and Sleep in the threads package).
//
// Proc methods that block must only be called from within that Proc's own
// body function.
//
// A Proc is resumed on whichever goroutine executes its kernel's events
// (from that goroutine or from another Proc's coroutine running on it):
// the caller of Run, or, under a Coupling, the domain's one owner during a
// run — the scheduler for domain 0, a worker goroutine for every other.
// Each run starts fresh workers, so a coroutine may be resumed from
// different goroutines across runs; iter.Pull allows that as long as two
// resumptions never overlap, and the end-of-run join guarantees they do
// not. The pool is per kernel, and one domain owns a kernel, so no two
// goroutines ever share it.
type Proc struct {
	k    *Kernel
	name string
	fn   func(p *Proc) // a Go Proc's body, until it runs
	srv  Server        // a server's loop; nil for a Go Proc

	co     *coro       // the coroutine running the body, nil while none is
	wakeFn func()      // wakeup's event, built once so wake-ups do not allocate
	spin   func() bool // the step of a Spin in progress
	stream *Stream     // the poll stream the step has become, if any
	slot   int32       // p's spin slot in the kernel's arena, -1 until p first spins
	nested bool        // co runs, or is suspended inside an enter it called

	// Deadlock reports format the blocking label lazily from these.
	state procState
	dead  bool
	on    *Signal   // the Signal a suspended Proc waits on, if any
	desc  Describer // if set, describes a suspended Proc instead
}

// A Server is a Proc's loop of waiting for work and handling it, for
// Kernel.Serve: the loop
//
//	for {
//		p.Spin(srv.Step)
//		srv.Handle()
//	}
//
// with Step's calls made without a coroutine.
type Server interface {
	// Step waits for the next piece of work as a Spin step: it reports
	// true once it has one, and false when it has started a wait that
	// ends with Resume. It must not block.
	Step() bool
	// Handle handles the work Step found. It runs on a coroutine and may
	// block.
	Handle()
}

// coro is a pooled coroutine. It runs one Proc's body at a time and
// returns to its kernel's pool when the body gives it back.
type coro struct {
	k     *Kernel
	p     *Proc                   // the Proc it runs, nil while pooled
	next  func() (struct{}, bool) // resumes it
	yield func(struct{}) bool     // suspends it; valid inside it
}

// procState is what a Proc is doing, for Resume's check and deadlock
// reports.
type procState uint8

const (
	procStarting procState = iota
	procRunning
	procSuspended // Suspend, or Wait on p.on
	procResumed   // Resume has scheduled the wake-up, which has not run
	procSpinning  // a wake-up is calling the Spin step, in kernel context
)

// A Describer says, in deadlock reports, what a suspended Proc is blocked
// on. It is consulted only when a report is built, so blocking formats no
// label. Layers that multiplex their own blocking reasons over Suspend
// (the threads package) install one with SetDescriber. An empty
// description marks the Proc idle rather than blocked, such as a worker
// between jobs: Run and a Coupling's Run report no deadlock for it, and
// deadlock reports leave it out.
type Describer interface {
	Describe() string
}

// SetDescriber makes deadlock reports describe p, while it is suspended,
// with d.Describe().
func (p *Proc) SetDescriber(d Describer) { p.desc = d }

// Go starts a new Proc running fn. The Proc begins executing at the current
// virtual time, after already-scheduled events for this instant.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, fn: fn, slot: -1}
	p.wakeFn = p.wakeup()
	k.procs[p] = struct{}{}
	k.schedule(k.now, p.start)
	return p
}

// Serve starts a server Proc running srv's loop. Its start event, at the
// current instant like Go's, only suspends it: the first Resume calls
// srv.Step from the wake event. Every Step call after a wait runs there,
// in kernel context with the Proc current, as a Spin step's does. When a
// step finds work the wake event lends the Proc a pooled coroutine and
// switches into it to run Handle; Step's next call follows Handle on
// that coroutine, and once a step starts a wait the coroutine goes back
// to the pool. A server never finishes. Every event, and so every
// result, is the straight-line loop's; only Resumes and the number of
// coroutines drop.
func (k *Kernel) Serve(name string, srv Server) *Proc {
	p := k.Go(name, nil)
	p.srv = srv
	return p
}

// start is the Proc's first event. A Go Proc borrows a coroutine and
// runs its body up to its first blocking point; taking the coroutine
// here rather than in Go keeps its cost with the first run, not with
// set-up. A server stays suspended in its step until its first Resume.
func (p *Proc) start() {
	if p.srv != nil {
		p.state = procSuspended
		return
	}
	p.wakeFn()
}

// bind lends p an idle coroutine from the kernel's pool, creating one
// when the pool is empty.
func (k *Kernel) bind(p *Proc) {
	var c *coro
	if n := len(k.coros); n > 0 {
		c = k.coros[n-1]
		k.coros = k.coros[:n-1]
	} else {
		c = &coro{k: k}
		c.next, _ = iter.Pull(c.loop)
	}
	c.p = p
	p.co = c
}

// maxIdleCoros bounds a kernel's pool. A coroutine given back while the
// pool holds this many ends, so a simulation leaves at most this many
// parked goroutines behind besides its live Procs. A pooled coroutine
// keeps the stack its Procs grew, where a new one grows its own again:
// on nectar-perf (2-core VM), ending every coroutine whose Proc finished
// cost stream 5% of its msgs/s, and an unbounded pool left rtt 8 parked
// goroutines per unit where this bound leaves 6.
const maxIdleCoros = 4

// loop is a coroutine's body: run the bound Proc's body, return to the
// pool unless it is full, and wait to be bound again.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.run()
		c.p.co = nil
		c.p = nil
		if len(c.k.coros) >= maxIdleCoros {
			return
		}
		c.k.coros = append(c.k.coros, c)
		yield(struct{}{})
	}
}

// run is the body code of p's turn on a coroutine. A Go Proc runs its
// body to the end and finishes. A server handles the work its step
// found, calls the step again, and repeats while the step finds more;
// once the step starts a wait the server is suspended in it again. A
// panic is recovered here, inside the coroutine, and becomes Run's
// error.
func (p *Proc) run() {
	defer p.recoverRun()
	p.state = procRunning
	if p.srv == nil {
		fn := p.fn
		p.fn = nil
		fn(p)
		p.exit()
		return
	}
	for {
		p.srv.Handle()
		if !p.srv.Step() {
			break
		}
	}
	p.state = procSuspended
	p.k.current = nil
}

// exit marks p finished.
func (p *Proc) exit() {
	p.dead = true
	delete(p.k.procs, p)
	p.k.current = nil
	p.freeSpinSlot()
}

// recoverRun turns a panic in p's body code into Run's error and
// finishes p.
func (p *Proc) recoverRun() {
	if r := recover(); r != nil {
		p.k.Fatalf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
		p.exit()
	}
}

// wakeup builds p's wake event, which transfers control from kernel
// context to the proc and returns when it yields back. Waking a finished
// proc is a no-op. While the proc spins, or is a server without a
// coroutine (and so waiting in its step), the event calls the step first
// and switches into the coroutine only once the step is done; a proc
// without one borrows it then. Dispatched by a waiting Proc (drive), the
// event does not switch at all: it leaves p in woken. The event is a
// closure rather than the method value of a dispatch method: with the
// step branch such a method is too large to inline into its method
// value's wrapper, which would cost every wake-up a second call.
func (p *Proc) wakeup() func() {
	return func() {
		if p.dead {
			return
		}
		if p.spin != nil || p.co == nil && p.srv != nil {
			p.wakeSpin()
			return
		}
		k := p.k
		k.current = p
		if k.driving {
			k.woken = p
			return
		}
		k.switchTo(p)
	}
}

// switchTo switches the kernel's goroutine into p's coroutine, at the
// bottom of a chain of Procs that hand off to each other (yield), and
// returns once the whole chain has unwound. It re-panics a panic that a
// driven event raised, so that it leaves Run as from the kernel's loop.
func (k *Kernel) switchTo(p *Proc) {
	k.enter(p)
	if r := k.panicked; r != nil {
		k.panicked = nil
		panic(r)
	}
}

// enter switches into p's coroutine, lending p one from the pool if it
// has none, and returns when p yields or its body code returns. p is
// nested until then: its coroutine runs, or is suspended inside an enter
// of its own.
//
//nectar:hotpath-exempt runs another Proc's body code, not this wait's; bind allocates only on a pool miss
func (k *Kernel) enter(p *Proc) {
	k.resumes++
	if p.co == nil {
		k.bind(p)
	}
	p.nested = true
	p.co.next()
	p.nested = false
}

// drive is the dispatch loop on the coroutine of p, which has just
// started a wait: it runs the events the kernel's loop would run next,
// in kernel context, and reports true as soon as p's own wake-up has
// run, so p returns into its body without a switch. It reports false
// at the loop's bound, on a failure, after a panic (left in panicked), or
// once a wake-up of another Proc needs a switch (left in woken for
// yield).
//
//nectar:hotpath
func (p *Proc) drive() (own bool) {
	k := p.k
	defer k.recoverDrive()
	k.driving = true
	for k.due() {
		k.step()
		if w := k.woken; w != nil {
			if own = w == p; own {
				k.woken = nil
			}
			break
		}
	}
	k.driving = false
	return own
}

// recoverDrive keeps a panic of a driven event for switchTo to raise on
// the kernel's goroutine, so the driving Proc stays suspended rather
// than failing with it. A Spin step's panic fails the run instead
// (stepFailed).
//
//nectar:hotpath-exempt panic path, dead in steady state
func (k *Kernel) recoverDrive() {
	if r := recover(); r != nil {
		k.driving = false
		if !k.stepFailed(r) {
			k.panicked = r
		}
	}
}

// wakeSpin is the wake-up of p while it spins, or while it is a server
// without a coroutine: it calls the step in kernel context, with p
// current, and switches into p, or leaves it in woken for a driving
// Proc, only once the step is done; until then p stays suspended. Run
// from p's spin slot or in place, it is the wake event's work without
// the event. A step's panic is recovered once per dispatch loop rather
// than per call (stepFailed).
//
//nectar:hotpath
func (p *Proc) wakeSpin() {
	k := p.k
	k.current = p
	p.state = procSpinning
	var done bool
	if p.spin != nil {
		done = p.spin()
	} else {
		done = p.srv.Step()
	}
	if !done {
		p.state = procSuspended
		k.current = nil
		return
	}
	p.spin = nil
	p.state = procResumed
	if k.driving {
		k.woken = p
		return
	}
	k.switchTo(p)
}

// stepFailed turns a panic r that a Spin step, or a server's, raised in
// kernel context into Run's error, as run does for one in the coroutine,
// and reports whether it did. Only a step runs with its Proc current and
// spinning. The failed kernel runs no further events. The kernel's loop
// (endRun) and a driving Proc's (recoverDrive) call it, so a step call
// pays for no deferred recover of its own.
//
//nectar:hotpath-exempt panic path, dead in steady state
func (k *Kernel) stepFailed(r any) bool {
	p := k.current
	if p == nil || p.state != procSpinning {
		return false
	}
	k.Fatalf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
	p.state = procSuspended
	k.current = nil
	return true
}

// yield blocks the proc until it is dispatched again; state and on
// record what it waits for. It first runs the events ahead of its
// wake-up itself (drive). When drive stops at another Proc's wake-up,
// p switches into that Proc from its own coroutine and, when the Proc
// hands control back, drives on, until its own wake-up comes. It yields
// to the Proc or event that resumed it only at the loop's bound, on a
// failure, after a panic, or when the wake-up is that of a Proc lower on
// the chain, which must return into its body first (the package doc,
// "Waits drive the loop").
//
//nectar:hotpath
func (p *Proc) yield(state procState, on *Signal) {
	k := p.k
	if k.current != p || p.state == procSpinning {
		Panicf("sim: blocking call on proc %q from outside its coroutine", p.name)
	}
	p.state = state
	p.on = on
	k.current = nil
	own := p.drive()
	for !own {
		w := k.woken
		if w == nil || w.nested || k.panicked != nil {
			p.co.yield(struct{}{})
			break
		}
		k.woken = nil
		k.enter(w)
		if own = k.woken == p; own {
			k.woken = nil
		} else if k.woken == nil && k.panicked == nil {
			own = p.drive()
		}
	}
	k.current = p
	p.state = procRunning
}

// label formats p's state for a deadlock report or a Resume panic.
func (p *Proc) label() string {
	switch p.state {
	case procStarting:
		return "starting"
	case procSuspended:
		if p.desc != nil {
			return p.desc.Describe()
		}
		if p.on != nil {
			return "waiting:" + p.on.name
		}
		return "suspended"
	case procResumed:
		return "resumed"
	case procSpinning:
		return "spinning"
	}
	return "running"
}

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// Suspend blocks the proc until Resume. A suspended Proc that nobody
// resumes is a deadlock when the queue drains, unless its Describer
// describes it as idle.
//
//nectar:hotpath
func (p *Proc) Suspend() { p.yield(procSuspended, nil) }

// Spin runs step until it reports done, suspending the proc once however
// many waits that takes. step is a state machine over a loop body that
// would otherwise block: it does its work up to the point where it
// starts a wait (one that ends with Resume), returns false, and is
// called again from the proc's wake event when that wait ends. The first
// call runs here, inside the proc; every later one runs in kernel
// context inside the wake event, with the proc current, so Advance holds
// there exactly as in the body; it must not block. Spin returns when
// step returns true; until then the proc is suspended, and deadlock
// reports label it as such.
//
// A loop that blocks on every iteration costs two coroutine switches per
// iteration; as a Spin step it costs none, and every event it schedules
// is the same. From the first call on, the proc's wake-ups, and the
// waits it arms with SpinAfter, go to its spin slot rather than the
// heap (the package doc, "Spin slots").
//
//nectar:hotpath
func (p *Proc) Spin(step func() bool) {
	p.spin = step
	if step() {
		p.spin = nil
		return
	}
	p.yield(procSuspended, nil)
}

// Resume wakes a suspended proc: its wake-up runs at the current
// instant, after the events already scheduled for it. A spinning proc's
// wake-up waits in its spin slot, with the key the heap would give it.
// Resuming a proc that is running or already resumed panics.
//
//nectar:hotpath
func (p *Proc) Resume() {
	p.Settle()
	p.setResumed()
	if p.spin != nil {
		p.SpinAfter(0, nil, p.wakeFn)
		return
	}
	p.k.schedule(p.k.now, p.wakeFn)
}

// setResumed marks a suspended p resumed, and panics if p is in any
// other state. It is small enough to inline into both forms of Resume;
// badResume formats the panic.
func (p *Proc) setResumed() {
	if p.state != procSuspended {
		p.badResume()
	}
	p.state = procResumed
}

func (p *Proc) badResume() {
	Panicf("sim: Resume of proc %q, which is %s", p.name, p.label())
}

// ResumeInPlace is Resume for the last thing an event callback does. When
// no other event is queued at the current instant, in the heap or a spin
// slot, the wake-up Resume would schedule is the next event the loop
// dispatches, so it runs it here at once: it takes the sequence number
// Resume would and counts in Dispatched, so every other event keeps its
// (time, seq) key. Otherwise, or outside a dispatch (from a Proc, before
// Run, after a failure), it is Resume. A spin slot armed by SpinAfter
// runs this same wake-up after its callback.
//
//nectar:hotpath
func (p *Proc) ResumeInPlace() {
	k := p.k
	p.Settle()
	if !k.wakesInPlace() {
		p.Resume()
		return
	}
	p.setResumed()
	k.seq++
	k.steps++
	p.wakeFn()
}

// wakesInPlace reports whether a wake-up due now, from an event
// callback, would be the next event the loop dispatches: the kernel is
// dispatching (not a Proc, not before Run, not failed), and no other
// event, in the heap or a spin slot, is queued at the current instant.
//
//nectar:hotpath
func (k *Kernel) wakesInPlace() bool {
	return k.current == nil && k.now < k.limit && !k.queuedBefore(k.now+1)
}

// Signal is a FIFO of Procs suspended in Wait, akin to a condition
// variable: Wait always blocks, and Signal resumes the longest waiter, if
// any. Guard it with model-level state, exactly as with a condition
// variable.
type Signal struct {
	name    string
	waiters []*Proc
}

// NewSignal creates a named Signal for procs on k.
//
//nectar:api cmd/nectar-perf calls it; that module is the benchmark's and builds against this tree
func (k *Kernel) NewSignal(name string) *Signal { return &Signal{name: name} }

// Wait suspends p on s until s is signaled.
//
//nectar:hotpath
//nectar:api cmd/nectar-perf calls it; that module is the benchmark's and builds against this tree
func (p *Proc) Wait(s *Signal) {
	s.waiters = append(s.waiters, p)
	p.yield(procSuspended, s)
}

// Signal resumes the longest-waiting proc, if any.
//
//nectar:hotpath
func (s *Signal) Signal() {
	if len(s.waiters) > 0 {
		p := s.waiters[0]
		s.waiters = PopFront(s.waiters)
		p.Resume()
	}
}

// PopFront removes q[0] and shifts the rest down, so a FIFO queue keeps
// its capacity: a queue drained and refilled never reallocates, as one
// whose head creeps forward with q[1:] does (once such a queue drains, its
// capacity is 0 and the next append allocates). q must not be empty.
func PopFront[T any](q []T) []T {
	n := copy(q, q[1:])
	var zero T
	q[n] = zero
	return q[:n]
}
