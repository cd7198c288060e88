package threads

import "nectar/internal/sim"

// A Queue is the work a server thread serves (Sched.Serve).
type Queue interface {
	// Take takes the next item, if there is one, and reports whether it
	// did. It runs in zero time, so no other thread runs between it and
	// the server's wait on its Cond.
	Take() bool
	// Serve handles the item Take took. It runs on the server thread and
	// may block.
	Serve(t *Thread)
}

// Serve forks a thread named name at prio that serves q. Its loop is
//
//	for {
//		t.Compute(charge)
//		for !q.Take() {
//			c.Wait(t)
//		}
//		q.Serve(t)
//	}
//
// but everything before q.Serve runs as a step (sim.Kernel.Serve): an
// idle server holds no coroutine, and the thread borrows one from its
// kernel's pool only while q.Serve runs, since that may block. Every
// charge, context switch, priority decision and event is the loop's, at
// the same instant and in the same order, and a blocked server is
// reported as blocked on c, as the loop's thread would be.
func (s *Sched) Serve(name string, prio Priority, charge sim.Duration, c *Cond, q Queue) *Thread {
	t := &Thread{sched: s, name: name, prio: prio}
	t.proc = s.k.Serve(s.name+"/"+name, &server{t: t, q: q, charge: charge, c: c})
	t.proc.SetDescriber(t)
	s.onReady(t)
	return t
}

// server is a server thread's loop, as a sim.Server.
type server struct {
	t      *Thread
	q      Queue
	charge sim.Duration
	c      *Cond
	phase  servePhase
	w      *waiter // the Cond wait in progress
}

// servePhase is where a server's step resumes.
type servePhase uint8

const (
	serveCharge servePhase = iota // charge the take's CPU time
	serveTake                     // take an item, or wait on c
	serveWoken                    // c's wait has ended
)

// Step runs the loop up to q.Serve: it reports true once an item is
// taken, and false when a compute slice, a switch away, or a wait on c
// has started; the thread's next wake-up calls it again.
//
//nectar:hotpath
func (v *server) Step() bool {
	t := v.t
	for {
		switch v.phase {
		case serveCharge:
			v.phase = serveTake
			if !t.StartCompute(v.charge) {
				return false
			}
		case serveTake:
			if v.q.Take() {
				v.phase = serveCharge
				return true
			}
			v.w = v.c.startWait(t)
			v.phase = serveWoken
			return false
		case serveWoken:
			v.w.finish()
			v.w = nil
			v.phase = serveTake
		}
	}
}

// Handle serves the item the step took.
func (v *server) Handle() { v.q.Serve(v.t) }
