package threads

import (
	"slices"

	"nectar/internal/sim"
)

// Mutex is a mutual exclusion lock with FIFO handoff, as provided by the
// CAB threads package (paper §3.1). A lock is for a critical section that
// spans a blocking point. A thread gives up the CPU only inside a Compute
// slice or at a block, and the scheduler never preempts a zero-time
// window, so a section with neither is atomic without a lock. A section
// containing a Compute or a blocking call can be interleaved with other
// threads, exactly as on the real CAB, and the Mutex keeps them out.
type Mutex struct {
	name    string
	owner   *Thread
	waiters []*Thread
}

// NewMutex creates an unlocked mutex.
func NewMutex(name string) *Mutex {
	return &Mutex{name: name}
}

// Lock acquires the mutex, blocking the calling thread while another
// thread holds it. Handoff is FIFO.
func (m *Mutex) Lock(t *Thread) {
	if m.owner == nil {
		m.owner = t
		return
	}
	if m.owner == t {
		sim.Panicf("threads: recursive Lock of %q by %q", m.name, t.Name())
	}
	m.waiters = append(m.waiters, t)
	t.BlockOn("mutex", m.name)
	// Ownership was handed to us by Unlock before we were woken.
	if m.owner != t {
		sim.Panicf("threads: woke from Lock of %q without ownership", m.name)
	}
}

// Unlock releases the mutex, handing it to the longest-waiting thread.
func (m *Mutex) Unlock(t *Thread) {
	if m.owner != t {
		sim.Panicf("threads: Unlock of %q by non-owner %q", m.name, t.Name())
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := m.waiters[0]
	m.waiters = sim.PopFront(m.waiters)
	m.owner = next
	next.Unblock()
}

// Cond is a condition variable with Mesa semantics, matching the CAB
// threads package: a woken waiter must re-check its predicate in a loop.
// Wait takes no mutex. The predicate check and the wait are one zero-time
// section, which no other thread can enter (see Mutex); a caller that
// does hold a Mutex across the wait unlocks it first and locks it again
// after. Signal and Broadcast may be called from any context, including
// interrupt handlers (a common pattern in the paper's protocol code).
type Cond struct {
	name, role string // reported as name+role
	waiters    []*waiter
}

// NewCond creates a condition variable.
func NewCond(name string) *Cond {
	return &Cond{name: name}
}

// Init names a zero Cond held by value, reported as name+role. An object
// that owns several conditions passes its own name and a constant role
// for each (".notEmpty"), so building them concatenates no string: the
// label is formatted only in deadlock reports and panics.
func (c *Cond) Init(name, role string) {
	c.name, c.role = name, role
}

// Wait blocks t until signaled.
func (c *Cond) Wait(t *Thread) {
	w := c.startWait(t)
	t.proc.Suspend()
	w.finish()
}

// startWait is Wait up to the wait, for a step: it queues and blocks t.
// Once t is woken, the step calls finish on the returned record.
func (c *Cond) startWait(t *Thread) *waiter {
	w := t.sched.newWaiter(c, t)
	t.startBlock("cond", c.name, c.role, nil)
	return w
}

// WaitTimeout is Wait with a timeout; it reports true if signaled, false if
// the timeout elapsed first.
func (c *Cond) WaitTimeout(t *Thread, d sim.Duration) bool {
	w := t.sched.newWaiter(c, t)
	w.arm(d)
	t.startBlock("cond", c.name, c.role, nil)
	t.proc.Suspend()
	timedOut := w.timedOut
	w.finish()
	return !timedOut
}

// Signal wakes one waiter (FIFO).
func (c *Cond) Signal() {
	if len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = sim.PopFront(c.waiters)
		w.wake()
	}
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	// Unblock runs no thread, so nothing joins the queue mid-loop.
	for i, w := range c.waiters {
		c.waiters[i] = nil
		w.wake()
	}
	c.waiters = c.waiters[:0]
}

// HasWaiters reports whether any thread is waiting on c.
func (c *Cond) HasWaiters() bool { return len(c.waiters) > 0 }

// waiter is one thread's wait on a Cond, or one Sleep (c == nil). Records
// are pooled per Sched and return to the pool once nothing refers to them:
// not the Cond's queue (queued), not the waiting thread (waiting), and not
// a timeout timer (armed). A timer keeps its record until it fires, even
// after a signal won: the timer stays queued and fires as a no-op, because
// stopping it would change the event queue that virtual time depends on.
type waiter struct {
	s        *Sched
	c        *Cond
	t        *Thread
	epoch    uint64 // t's epoch during this wait, for the timeout's guard
	queued   bool
	waiting  bool
	armed    bool
	timedOut bool

	onTimeout func() // w.timeout, built once per record
}

// newWaiter takes a record from s's pool for t, queued on c unless c is
// nil.
func (s *Sched) newWaiter(c *Cond, t *Thread) *waiter {
	w, ok := s.waiterFree.Get()
	if !ok {
		w = &waiter{s: s}
		w.onTimeout = w.timeout
	}
	w.c, w.t, w.timedOut = c, t, false
	if c != nil {
		w.queued, w.waiting = true, true
		c.waiters = append(c.waiters, w)
	}
	return w
}

// arm starts w's timeout; it wakes the thread from the Block that follows.
func (w *waiter) arm(d sim.Duration) {
	w.epoch = w.t.epoch + 1 // the epoch after Block's increment
	w.armed = true
	w.s.k.After(d, w.onTimeout)
}

// timeout is w's timer callback. A Cond wait that was already signaled is
// left alone.
func (w *waiter) timeout() {
	w.armed = false
	if w.c != nil {
		if !w.queued {
			w.release()
			return
		}
		w.queued = false
		w.timedOut = true
		w.c.remove(w)
	}
	if t := w.t; t.epoch == w.epoch && t.state == stateBlocked {
		t.Unblock()
	}
	w.release()
}

// wake takes w, already off its Cond's queue, and makes its thread
// runnable.
func (w *waiter) wake() {
	w.queued = false
	w.t.Unblock()
	w.release()
}

// finish lets go of w once its thread runs again.
func (w *waiter) finish() {
	w.waiting = false
	w.release()
}

// release returns w to its pool once nothing refers to it.
func (w *waiter) release() {
	if w.queued || w.waiting || w.armed {
		return
	}
	w.c, w.t = nil, nil
	w.s.waiterFree.Put(w)
}

func (c *Cond) remove(w *waiter) {
	if i := slices.Index(c.waiters, w); i >= 0 {
		c.waiters = slices.Delete(c.waiters, i, i+1)
	}
}
