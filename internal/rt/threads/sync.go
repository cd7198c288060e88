package threads

import (
	"nectar/internal/sim"
)

// Mutex is a mutual exclusion lock with FIFO handoff, as provided by the
// CAB threads package (paper §3.1). Because the simulation kernel is
// single-threaded, the lock exists to model *logical* mutual exclusion
// across blocking points, exactly as on the real CAB: a critical section
// containing a Compute or a blocking call can be interleaved with other
// threads, and the Mutex keeps them out.
type Mutex struct {
	name, role string // reported as name+role
	owner      *Thread
	waiters    []*Thread
}

// NewMutex creates an unlocked mutex.
func NewMutex(name string) *Mutex {
	return &Mutex{name: name}
}

// Init names a zero Mutex held by value, reported as name+role. An
// object that owns several locks and conditions passes its own name and
// a constant role for each (".mu"), so building them concatenates no
// string: the label is formatted only in deadlock reports and panics.
func (m *Mutex) Init(name, role string) {
	m.name, m.role = name, role
}

// Lock acquires the mutex, blocking the calling thread while another
// thread holds it. Handoff is FIFO.
func (m *Mutex) Lock(t *Thread) {
	if m.startLock(t) {
		return
	}
	t.proc.Suspend()
	// Ownership was handed to us by Unlock before we were woken.
	if m.owner != t {
		sim.Panicf("threads: woke from Lock of %q without ownership", m.name+m.role)
	}
}

// startLock is Lock without the wait, for a step: it reports true when
// t now holds the mutex, and false when t has queued for it and blocked,
// in which case Unlock hands t the mutex before waking it.
func (m *Mutex) startLock(t *Thread) bool {
	if m.owner == nil {
		m.owner = t
		return true
	}
	if m.owner == t {
		sim.Panicf("threads: recursive Lock of %q by %q", m.name+m.role, t.Name())
	}
	m.waiters = append(m.waiters, t)
	t.startBlock("mutex", m.name, m.role)
	return false
}

// TryLock acquires the mutex if it is free, without blocking. It reports
// whether the lock was acquired. Safe from interrupt handlers.
func (m *Mutex) TryLock(t *Thread) bool {
	if m.owner != nil {
		return false
	}
	m.owner = t
	return true
}

// Unlock releases the mutex, handing it to the longest-waiting thread.
func (m *Mutex) Unlock(t *Thread) {
	if m.owner != t {
		sim.Panicf("threads: Unlock of %q by non-owner %q", m.name+m.role, t.Name())
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := m.waiters[0]
	m.waiters = removeAt(m.waiters, 0)
	m.owner = next
	next.Unblock()
}

// Held reports whether the mutex is currently held (by anyone).
func (m *Mutex) Held() bool { return m.owner != nil }

// HeldBy reports whether t holds the mutex.
func (m *Mutex) HeldBy(t *Thread) bool { return m.owner == t }

// Cond is a condition variable with Mesa semantics, matching the CAB
// threads package: Wait releases the associated mutex and re-acquires it
// before returning; waiters must re-check their predicate in a loop.
// Signal and Broadcast may be called from any context, including interrupt
// handlers (a common pattern in the paper's protocol code).
type Cond struct {
	name, role string // reported as name+role
	waiters    []*waiter
}

// NewCond creates a condition variable.
func NewCond(name string) *Cond {
	return &Cond{name: name}
}

// Init names a zero Cond held by value, reported as name+role (see
// Mutex.Init).
func (c *Cond) Init(name, role string) {
	c.name, c.role = name, role
}

// Wait atomically releases m and blocks until signaled, then re-acquires m.
func (c *Cond) Wait(t *Thread, m *Mutex) {
	w := c.startWait(t, m)
	t.proc.Suspend()
	w.finish()
	m.Lock(t)
}

// startWait is Wait up to the wait, for a step: it queues t, releases m
// and blocks t. Once t is woken, the step calls finish on the returned
// record and re-acquires m.
func (c *Cond) startWait(t *Thread, m *Mutex) *waiter {
	w := t.sched.newWaiter(c, t)
	m.Unlock(t)
	t.startBlock("cond", c.name, c.role)
	return w
}

// WaitTimeout is Wait with a timeout; it reports true if signaled, false if
// the timeout elapsed first. In either case m is re-acquired.
func (c *Cond) WaitTimeout(t *Thread, m *Mutex, d sim.Duration) bool {
	w := t.sched.newWaiter(c, t)
	w.arm(d)
	m.Unlock(t)
	t.startBlock("cond", c.name, c.role)
	t.proc.Suspend()
	timedOut := w.timedOut
	w.finish()
	m.Lock(t)
	return !timedOut
}

// Signal wakes one waiter (FIFO).
func (c *Cond) Signal() {
	if len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = removeAt(c.waiters, 0)
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
	var w *waiter
	if n := len(s.waiterFree); n > 0 {
		w = s.waiterFree[n-1]
		s.waiterFree = s.waiterFree[:n-1]
	} else {
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
	w.s.waiterFree = append(w.s.waiterFree, w)
}

func (c *Cond) remove(w *waiter) {
	for i, x := range c.waiters {
		if x == w {
			c.waiters = removeAt(c.waiters, i)
			return
		}
	}
}

// removeAt removes q[i] and shifts the rest down, so a FIFO wait queue
// keeps its capacity: a queue drained and refilled never reallocates, as
// one whose head creeps forward with q[1:] does.
func removeAt[T any](q []T, i int) []T {
	n := copy(q[i:], q[i+1:])
	var zero T
	q[i+n] = zero
	return q[:i+n]
}
