package threads

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nectar/internal/model"
	"nectar/internal/sim"
)

// intQueue is a queue of ints whose handler computes work
// per item and logs it.
type intQueue struct {
	items []int
	item  int
	work  sim.Duration
	log   *[]string
}

func (q *intQueue) Take() bool {
	if len(q.items) == 0 {
		return false
	}
	q.item = q.items[0]
	q.items = q.items[1:]
	return true
}

func (q *intQueue) Serve(t *Thread) {
	*q.log = append(*q.log, fmt.Sprintf("take %d at %v", q.item, t.Now()))
	t.Compute(q.work)
}

// serveImpl starts a server thread: Sched.Serve or the loop oracle.
type serveImpl func(s *Sched, name string, prio Priority, charge sim.Duration, c *Cond, q Queue) *Thread

// loopServe is Sched.Serve's loop written out on an ordinary thread.
func loopServe(s *Sched, name string, prio Priority, charge sim.Duration, c *Cond, q Queue) *Thread {
	return s.Fork(name, prio, func(t *Thread) {
		for {
			t.Compute(charge)
			for !q.Take() {
				c.Wait(t)
			}
			q.Serve(t)
		}
	})
}

func stepServe(s *Sched, name string, prio Priority, charge sim.Duration, c *Cond, q Queue) *Thread {
	return s.Serve(name, prio, charge, c, q)
}

// TestServeMatchesLoop runs a server whose take is charged, whose queue
// a lower-priority producer fills and signals and then computes (so the
// woken server preempts it at the compute), with an interrupt in the
// handler, under Sched.Serve and under the loop, and requires identical
// logs, CPU times, switches, events and deadlock report.
func TestServeMatchesLoop(t *testing.T) {
	run := func(serve serveImpl) []string {
		k := sim.NewKernel()
		s := New(k, model.Default1990(), "cab0")
		var log []string
		q := &intQueue{work: 30 * sim.Microsecond, log: &log}
		c := NewCond("q")
		srv := serve(s, "server", SystemPriority, 3*sim.Microsecond, c, q)
		s.Fork("producer", AppPriority, func(th *Thread) {
			for i := 1; i <= 4; i++ {
				q.items = append(q.items, i, 10*i)
				c.Signal()
				th.Compute(sim.Duration(i) * 10 * sim.Microsecond)
				th.Sleep(25 * sim.Microsecond)
			}
		})
		k.At(130*sim.Time(sim.Microsecond), func() {
			s.RaiseInterrupt("dev", func(h *Thread) { h.Compute(4 * sim.Microsecond) })
		})
		err := k.Run()
		return append(log,
			fmt.Sprintf("end %v cpu %v busy %v switches %d dispatched %d", k.Now(), srv.CPUTime(), s.busyTime, s.Switches(), k.Dispatched()),
			fmt.Sprint(err))
	}
	want, got := run(loopServe), run(stepServe)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Serve differs from the loop:\n got %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want, "\n     "))
	}
	if !strings.Contains(got[len(got)-1], "cab0/server@cond:q") {
		t.Errorf("the idle server is not reported waiting on its Cond: %s", got[len(got)-1])
	}
}
