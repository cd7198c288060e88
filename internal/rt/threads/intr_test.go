package threads

import (
	"fmt"
	"strings"
	"testing"

	"nectar/internal/sim"
)

// intrLog records one line per probe of interrupt delivery: the time, the
// CPU, the source (a handler's Name, or a label), the application
// thread's state, and the CPU's Switches, Interrupts, BusyTime and
// pended interrupts.
type intrLog struct {
	k *sim.Kernel
	b strings.Builder
}

var stateNames = [...]string{stateReady: "ready", stateRunning: "running", stateBlocked: "blocked", stateDone: "done"}

func (l *intrLog) add(s *Sched, src string, app *Thread) {
	st := "-"
	if app != nil {
		st = stateNames[app.state]
	}
	fmt.Fprintf(&l.b, "%d %s %s app=%s sw=%d intr=%d busy=%d pend=%d\n",
		l.k.Now(), s.Name(), src, st, s.Switches(), s.Interrupts(), s.busyTime, len(s.pendingIntr))
}

func (l *intrLog) note(format string, args ...any) {
	fmt.Fprintf(&l.b, "%d %s\n", l.k.Now(), fmt.Sprintf(format, args...))
}

// handler returns an interrupt handler that logs its start, computes d
// and logs its end.
func (l *intrLog) handler(app **Thread, d sim.Duration) func(h *Thread) {
	return func(h *Thread) {
		l.add(h.Sched(), h.Name()+" start", *app)
		h.Compute(d)
		l.add(h.Sched(), h.Name()+" end", *app)
	}
}

// intrScenarios drive interrupt delivery through every case the
// scheduler distinguishes. Each runs on a fresh kernel with the paper's
// costs (20 µs switch, 4 µs interrupt entry, 2 µs exit) and logs to l.
var intrScenarios = []struct {
	name string
	run  func(t *testing.T, l *intrLog)
}{
	{"preempt mid-slice", func(t *testing.T, l *intrLog) {
		k, s := testSched(t)
		l.k = k
		var app *Thread
		app = s.Fork("app", AppPriority, func(th *Thread) {
			l.add(s, "app start", app)
			th.Compute(100 * sim.Microsecond)
			l.add(s, "app end", app)
		})
		k.After(50*sim.Microsecond, func() { s.RaiseInterrupt("net", l.handler(&app, 10*sim.Microsecond)) })
		mustRun(t, k)
		l.add(s, "run done", app)
	}},
	{"nested mask", func(t *testing.T, l *intrLog) {
		k, s := testSched(t)
		l.k = k
		var app *Thread
		app = s.Fork("app", SystemPriority, func(th *Thread) {
			th.DisableInterrupts()
			th.DisableInterrupts()
			l.add(s, "app masked", app)
			th.Compute(30 * sim.Microsecond)
			th.EnableInterrupts()
			l.add(s, "app inner enable", app)
			th.Compute(10 * sim.Microsecond)
			th.EnableInterrupts()
			l.add(s, "app outer enable", app)
			th.Compute(10 * sim.Microsecond)
			l.add(s, "app end", app)
		})
		for i, src := range []string{"a", "b", "c"} {
			k.After(sim.Duration(25+5*i)*sim.Microsecond, func() {
				s.RaiseInterrupt(src, l.handler(&app, 3*sim.Microsecond))
				l.add(s, "raised "+src, app)
			})
		}
		mustRun(t, k)
		l.add(s, "run done", app)
	}},
	{"raised during entry and run", func(t *testing.T, l *intrLog) {
		k, s := testSched(t)
		l.k = k
		var app *Thread
		k.After(0, func() { s.RaiseInterrupt("first", l.handler(&app, 10*sim.Microsecond)) })
		k.After(2*sim.Microsecond, func() {
			l.add(s, "switching", app)
			s.RaiseInterrupt("during-entry", l.handler(&app, sim.Microsecond))
		})
		k.After(8*sim.Microsecond, func() {
			l.add(s, "handling", app)
			s.RaiseInterrupt("during-run", l.handler(&app, sim.Microsecond))
		})
		mustRun(t, k)
		l.add(s, "run done", app)
	}},
	{"handler raises", func(t *testing.T, l *intrLog) {
		k, s := testSched(t)
		l.k = k
		s1 := New(k, s.Cost(), "cab1")
		var app, app1 *Thread
		app = s.Fork("app", AppPriority, func(th *Thread) {
			th.Compute(60 * sim.Microsecond)
			l.add(s, "app end", app)
		})
		app1 = s1.Fork("app1", AppPriority, func(th *Thread) {
			th.Compute(60 * sim.Microsecond)
			l.add(s1, "app1 end", app1)
		})
		k.After(30*sim.Microsecond, func() {
			s.RaiseInterrupt("outer", func(h *Thread) {
				l.add(s, h.Name()+" start", app)
				s.RaiseInterrupt("self", l.handler(&app, 2*sim.Microsecond))
				l.add(s, "raised self", app)
				s1.RaiseInterrupt("remote", l.handler(&app1, 2*sim.Microsecond))
				l.add(s1, "raised remote", app1)
				h.Compute(5 * sim.Microsecond)
				l.add(s, h.Name()+" end", app)
			})
		})
		mustRun(t, k)
		l.add(s, "run done", app)
		l.add(s1, "run done", app1)
	}},
	{"finish with pended and ready", func(t *testing.T, l *intrLog) {
		k, s := testSched(t)
		l.k = k
		var app *Thread
		app = s.Fork("app", AppPriority, func(th *Thread) {
			th.Compute(100 * sim.Microsecond)
			l.add(s, "app end", app)
		})
		k.After(30*sim.Microsecond, func() { s.RaiseInterrupt("x", l.handler(&app, 10*sim.Microsecond)) })
		k.After(35*sim.Microsecond, func() {
			s.RaiseInterrupt("y", l.handler(&app, 10*sim.Microsecond))
			l.add(s, "raised y", app)
		})
		mustRun(t, k)
		l.add(s, "run done", app)
	}},
	{"horizon inside handler", func(t *testing.T, l *intrLog) {
		k, s := testSched(t)
		l.k = k
		var app *Thread
		app = s.Fork("app", AppPriority, func(th *Thread) {
			th.Compute(100 * sim.Microsecond)
			l.add(s, "app end", app)
		})
		k.After(30*sim.Microsecond, func() { s.RaiseInterrupt("slow", l.handler(&app, 50*sim.Microsecond)) })
		for _, d := range []sim.Duration{40, 30} {
			if err := k.RunFor(d * sim.Microsecond); err != nil {
				t.Fatal(err)
			}
			l.add(s, "horizon", app)
		}
		mustRun(t, k)
		l.add(s, "run done", app)
	}},
	{"idle handlers", func(t *testing.T, l *intrLog) {
		k, s := testSched(t)
		l.k = k
		s1 := New(k, s.Cost(), "cab1")
		var app *Thread
		for i := 0; i < 3; i++ {
			k.After(sim.Duration(i)*100*sim.Microsecond, func() { s.RaiseInterrupt("rx", l.handler(&app, 5*sim.Microsecond)) })
		}
		k.After(50*sim.Microsecond, func() { s1.RaiseInterrupt("tx", l.handler(&app, 5*sim.Microsecond)) })
		l.note("run err=%v", k.Run())
		l.add(s, "run done", app)
		l.add(s1, "run done", app)
	}},
	{"deadlock omits idle handler", func(t *testing.T, l *intrLog) {
		k, s := testSched(t)
		l.k = k
		var app *Thread
		app = s.Fork("stuck", SystemPriority, func(th *Thread) {
			th.Compute(10 * sim.Microsecond)
			th.Block("forever")
		})
		k.After(5*sim.Microsecond, func() { s.RaiseInterrupt("rx", l.handler(&app, 5*sim.Microsecond)) })
		l.note("run err=%v", k.Run())
		l.add(s, "run done", app)
	}},
}

// TestInterruptDeliveryOrder pins every interrupt's entry, compute and
// exit, the preempted application thread's state, and the CPU's context
// switches, interrupts, busy time and pended interrupts at each step of
// intrScenarios. The expected log is that of the scheduler that kept a
// free list of handler threads and parked them between interrupts.
func TestInterruptDeliveryOrder(t *testing.T) {
	l := &intrLog{}
	for _, sc := range intrScenarios {
		l.b.WriteString("== " + sc.name + "\n")
		sc.run(t, l)
	}
	if got := l.b.String(); got != intrDeliveryOrder {
		t.Errorf("interrupt delivery:\n%s\nwant:\n%s", got, intrDeliveryOrder)
	}
}

const intrDeliveryOrder = `== preempt mid-slice
20000 cab0 app start app=running sw=1 intr=0 busy=20000 pend=0
54000 cab0 intr:net start app=ready sw=1 intr=1 busy=54000 pend=0
64000 cab0 intr:net end app=ready sw=1 intr=1 busy=64000 pend=0
156000 cab0 app end app=running sw=2 intr=1 busy=156000 pend=0
156000 cab0 run done app=done sw=2 intr=1 busy=156000 pend=0
== nested mask
20000 cab0 app masked app=running sw=1 intr=0 busy=20000 pend=0
25000 cab0 raised a app=running sw=1 intr=0 busy=20000 pend=1
30000 cab0 raised b app=running sw=1 intr=0 busy=20000 pend=2
35000 cab0 raised c app=running sw=1 intr=0 busy=20000 pend=3
50000 cab0 app inner enable app=running sw=1 intr=0 busy=50000 pend=3
60000 cab0 app outer enable app=running sw=1 intr=1 busy=60000 pend=2
64000 cab0 intr:a start app=ready sw=1 intr=1 busy=64000 pend=2
67000 cab0 intr:a end app=ready sw=1 intr=1 busy=67000 pend=2
73000 cab0 intr:b start app=ready sw=1 intr=2 busy=73000 pend=1
76000 cab0 intr:b end app=ready sw=1 intr=2 busy=76000 pend=1
82000 cab0 intr:c start app=ready sw=1 intr=3 busy=82000 pend=0
85000 cab0 intr:c end app=ready sw=1 intr=3 busy=85000 pend=0
117000 cab0 app end app=running sw=2 intr=3 busy=117000 pend=0
117000 cab0 run done app=done sw=2 intr=3 busy=117000 pend=0
== raised during entry and run
2000 cab0 switching app=- sw=0 intr=1 busy=4000 pend=0
4000 cab0 intr:first start app=- sw=0 intr=1 busy=4000 pend=1
8000 cab0 handling app=- sw=0 intr=1 busy=4000 pend=1
14000 cab0 intr:first end app=- sw=0 intr=1 busy=14000 pend=2
20000 cab0 intr:during-entry start app=- sw=0 intr=2 busy=20000 pend=1
21000 cab0 intr:during-entry end app=- sw=0 intr=2 busy=21000 pend=1
27000 cab0 intr:during-run start app=- sw=0 intr=3 busy=27000 pend=0
28000 cab0 intr:during-run end app=- sw=0 intr=3 busy=28000 pend=0
30000 cab0 run done app=- sw=0 intr=3 busy=30000 pend=0
== handler raises
34000 cab0 intr:outer start app=ready sw=1 intr=1 busy=34000 pend=0
34000 cab0 raised self app=ready sw=1 intr=1 busy=34000 pend=1
34000 cab1 raised remote app=ready sw=1 intr=1 busy=38000 pend=0
38000 cab1 intr:remote start app=ready sw=1 intr=1 busy=38000 pend=0
39000 cab0 intr:outer end app=ready sw=1 intr=1 busy=39000 pend=1
40000 cab1 intr:remote end app=ready sw=1 intr=1 busy=40000 pend=0
45000 cab0 intr:self start app=ready sw=1 intr=2 busy=45000 pend=0
47000 cab0 intr:self end app=ready sw=1 intr=2 busy=47000 pend=0
108000 cab1 app1 end app=running sw=2 intr=1 busy=108000 pend=0
119000 cab0 app end app=running sw=2 intr=2 busy=119000 pend=0
119000 cab0 run done app=done sw=2 intr=2 busy=119000 pend=0
119000 cab1 run done app=done sw=2 intr=1 busy=108000 pend=0
== finish with pended and ready
34000 cab0 intr:x start app=ready sw=1 intr=1 busy=34000 pend=0
35000 cab0 raised y app=ready sw=1 intr=1 busy=34000 pend=1
44000 cab0 intr:x end app=ready sw=1 intr=1 busy=44000 pend=1
50000 cab0 intr:y start app=ready sw=1 intr=2 busy=50000 pend=0
60000 cab0 intr:y end app=ready sw=1 intr=2 busy=60000 pend=0
172000 cab0 app end app=running sw=2 intr=2 busy=172000 pend=0
172000 cab0 run done app=done sw=2 intr=2 busy=172000 pend=0
== horizon inside handler
34000 cab0 intr:slow start app=ready sw=1 intr=1 busy=34000 pend=0
40000 cab0 horizon app=ready sw=1 intr=1 busy=34000 pend=0
70000 cab0 horizon app=ready sw=1 intr=1 busy=34000 pend=0
84000 cab0 intr:slow end app=ready sw=1 intr=1 busy=84000 pend=0
196000 cab0 app end app=running sw=2 intr=1 busy=196000 pend=0
196000 cab0 run done app=done sw=2 intr=1 busy=196000 pend=0
== idle handlers
4000 cab0 intr:rx start app=- sw=0 intr=1 busy=4000 pend=0
9000 cab0 intr:rx end app=- sw=0 intr=1 busy=9000 pend=0
54000 cab1 intr:tx start app=- sw=0 intr=1 busy=4000 pend=0
59000 cab1 intr:tx end app=- sw=0 intr=1 busy=9000 pend=0
104000 cab0 intr:rx start app=- sw=0 intr=2 busy=15000 pend=0
109000 cab0 intr:rx end app=- sw=0 intr=2 busy=20000 pend=0
204000 cab0 intr:rx start app=- sw=0 intr=3 busy=26000 pend=0
209000 cab0 intr:rx end app=- sw=0 intr=3 busy=31000 pend=0
211000 run err=<nil>
211000 cab0 run done app=- sw=0 intr=3 busy=33000 pend=0
211000 cab1 run done app=- sw=0 intr=1 busy=11000 pend=0
== deadlock omits idle handler
24000 cab0 intr:rx start app=ready sw=1 intr=1 busy=24000 pend=0
29000 cab0 intr:rx end app=ready sw=1 intr=1 busy=29000 pend=0
61000 run err=sim: deadlock at 61.000us: blocked procs: cab0/stuck@forever
61000 cab0 run done app=blocked sw=2 intr=1 busy=61000 pend=0
`
