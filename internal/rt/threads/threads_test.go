package threads

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nectar/internal/model"
	"nectar/internal/sim"
)

// testSched returns a kernel+scheduler with the paper's default cost model.
func testSched(t *testing.T) (*sim.Kernel, *Sched) {
	t.Helper()
	k := sim.NewKernel()
	return k, New(k, model.Default1990(), "cab0")
}

// zeroCostSched returns a scheduler whose switch/interrupt costs are zero,
// for tests that check pure ordering.
func zeroCostSched() (*sim.Kernel, *Sched) {
	k := sim.NewKernel()
	c := model.Default1990()
	c.ContextSwitch = 0
	c.InterruptEntry = 0
	c.InterruptExit = 0
	return k, New(k, c, "cab0")
}

func mustRun(t *testing.T, k *sim.Kernel) {
	t.Helper()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	k, s := testSched(t)
	var end sim.Time
	s.Fork("worker", SystemPriority, func(th *Thread) {
		th.Compute(100 * sim.Microsecond)
		end = th.Now()
	})
	mustRun(t, k)
	// First dispatch charges one context switch (20us) + 100us compute.
	want := sim.Time(120 * sim.Microsecond)
	if end != want {
		t.Errorf("end = %v, want %v", end, want)
	}
}

func TestPriorityPreemption(t *testing.T) {
	k, s := zeroCostSched()
	var trace []string
	s.Fork("app", AppPriority, func(th *Thread) {
		trace = append(trace, fmt.Sprintf("app-start@%v", th.Now()))
		th.Compute(100 * sim.Microsecond)
		trace = append(trace, fmt.Sprintf("app-end@%v", th.Now()))
	})
	k.After(30*sim.Microsecond, func() {
		s.Fork("sys", SystemPriority, func(th *Thread) {
			trace = append(trace, fmt.Sprintf("sys-start@%v", th.Now()))
			th.Compute(40 * sim.Microsecond)
			trace = append(trace, fmt.Sprintf("sys-end@%v", th.Now()))
		})
	})
	mustRun(t, k)
	want := []string{
		"app-start@0.000us",
		"sys-start@30.000us",
		"sys-end@70.000us",
		"app-end@140.000us", // 30us consumed pre-preemption + 70us after resume at 70us
	}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("trace = %v\nwant %v", trace, want)
	}
}

func TestPreemptionChargesContextSwitch(t *testing.T) {
	k, s := testSched(t)
	cs := s.Cost().ContextSwitch
	var appEnd, sysEnd sim.Time
	s.Fork("app", AppPriority, func(th *Thread) {
		th.Compute(100 * sim.Microsecond)
		appEnd = th.Now()
	})
	k.After(50*sim.Microsecond, func() {
		s.Fork("sys", SystemPriority, func(th *Thread) {
			th.Compute(10 * sim.Microsecond)
			sysEnd = th.Now()
		})
	})
	mustRun(t, k)
	// app: dispatched at 20 (one switch), runs 30us until preempted at 50.
	// sys: switch 20 (50->70), compute 10 (->80).
	if want := sim.Time(80 * sim.Microsecond); sysEnd != want {
		t.Errorf("sysEnd = %v, want %v", sysEnd, want)
	}
	// app resumes: switch (80->100), remaining 70us (->170).
	if want := sim.Time(170 * sim.Microsecond); appEnd != want {
		t.Errorf("appEnd = %v, want %v", appEnd, want)
	}
	if s.Switches() < 3 {
		t.Errorf("switches = %d, want >= 3", s.Switches())
	}
	_ = cs
}

func TestEqualPriorityNoPreemption(t *testing.T) {
	k, s := zeroCostSched()
	var order []string
	s.Fork("a", SystemPriority, func(th *Thread) {
		th.Compute(50 * sim.Microsecond)
		order = append(order, "a")
	})
	s.Fork("b", SystemPriority, func(th *Thread) {
		th.Compute(10 * sim.Microsecond)
		order = append(order, "b")
	})
	mustRun(t, k)
	// b is shorter but must wait for a to finish: run-to-block at equal prio.
	if want := []string{"a", "b"}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestForkFIFOWithinPriority(t *testing.T) {
	k, s := zeroCostSched()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Fork(fmt.Sprintf("t%d", i), SystemPriority, func(th *Thread) {
			th.Compute(sim.Microsecond)
			order = append(order, i)
		})
	}
	mustRun(t, k)
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestBlockUnblock(t *testing.T) {
	k, s := zeroCostSched()
	var got sim.Time
	th := s.Fork("blocker", SystemPriority, func(th *Thread) {
		th.Block("test")
		got = th.Now()
	})
	k.After(77*sim.Microsecond, func() { th.Unblock() })
	mustRun(t, k)
	if want := sim.Time(77 * sim.Microsecond); got != want {
		t.Errorf("woke at %v, want %v", got, want)
	}
}

func TestSleep(t *testing.T) {
	k, s := zeroCostSched()
	var got sim.Time
	s.Fork("sleeper", SystemPriority, func(th *Thread) {
		th.Sleep(33 * sim.Microsecond)
		got = th.Now()
	})
	mustRun(t, k)
	if want := sim.Time(33 * sim.Microsecond); got != want {
		t.Errorf("woke at %v, want %v", got, want)
	}
}

func TestSleepStaleWakeupGuard(t *testing.T) {
	// A thread that is woken early from one block must not receive the
	// stale sleep timer wakeup in a later block.
	k, s := zeroCostSched()
	var wokeEarly, stale bool
	th := s.Fork("t", SystemPriority, func(th *Thread) {
		th.Sleep(100 * sim.Microsecond) // will be woken early at 10us
		wokeEarly = th.Now() == sim.Time(10*sim.Microsecond)
		th.Block("second") // must NOT be woken by the stale 100us timer
		stale = th.Now() < sim.Time(200*sim.Microsecond)
	})
	k.After(10*sim.Microsecond, func() { th.Unblock() })
	k.After(200*sim.Microsecond, func() { th.Unblock() })
	mustRun(t, k)
	if !wokeEarly {
		t.Error("early unblock did not take effect at 10us")
	}
	if stale {
		t.Error("stale sleep timer woke the second block")
	}
}

func TestJoin(t *testing.T) {
	k, s := zeroCostSched()
	var joined sim.Time
	worker := s.Fork("worker", AppPriority, func(th *Thread) {
		th.Compute(100 * sim.Microsecond)
	})
	s.Fork("joiner", SystemPriority, func(th *Thread) {
		th.Join(worker)
		joined = th.Now()
	})
	mustRun(t, k)
	if joined != sim.Time(100*sim.Microsecond) {
		t.Errorf("joined at %v, want 100us", joined)
	}
	if !worker.Done() {
		t.Error("worker not done")
	}
}

func TestJoinFinishedThread(t *testing.T) {
	k, s := zeroCostSched()
	worker := s.Fork("worker", SystemPriority, func(th *Thread) {})
	ok := false
	s.Fork("joiner", SystemPriority, func(th *Thread) {
		th.Sleep(50 * sim.Microsecond)
		th.Join(worker) // already done: returns immediately
		ok = true
	})
	mustRun(t, k)
	if !ok {
		t.Error("join on finished thread did not return")
	}
}

func TestMutexExclusionAcrossCompute(t *testing.T) {
	k, s := zeroCostSched()
	m := NewMutex("m")
	var trace []string
	for _, name := range []string{"a", "b"} {
		name := name
		s.Fork(name, SystemPriority, func(th *Thread) {
			m.Lock(th)
			trace = append(trace, name+"-in@"+th.Now().String())
			th.Compute(10 * sim.Microsecond)
			trace = append(trace, name+"-out@"+th.Now().String())
			m.Unlock(th)
		})
	}
	mustRun(t, k)
	want := []string{"a-in@0.000us", "a-out@10.000us", "b-in@10.000us", "b-out@20.000us"}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("trace = %v\nwant %v", trace, want)
	}
}

func TestMutexFIFO(t *testing.T) {
	k, s := zeroCostSched()
	m := NewMutex("m")
	var order []string
	for _, name := range []string{"a", "b", "c", "d"} {
		name := name
		s.Fork(name, SystemPriority, func(th *Thread) {
			m.Lock(th)
			th.Compute(sim.Microsecond)
			order = append(order, name)
			m.Unlock(th)
		})
	}
	mustRun(t, k)
	if want := []string{"a", "b", "c", "d"}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestRecursiveLockPanics(t *testing.T) {
	k, s := zeroCostSched()
	s.Fork("a", SystemPriority, func(th *Thread) {
		m := NewMutex("m")
		m.Lock(th)
		m.Lock(th)
	})
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("err = %v, want recursive-lock panic", err)
	}
}

func TestUnlockByNonOwnerPanics(t *testing.T) {
	k, s := zeroCostSched()
	m := NewMutex("m")
	s.Fork("a", SystemPriority, func(th *Thread) { m.Lock(th) })
	s.Fork("b", SystemPriority, func(th *Thread) { m.Unlock(th) })
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "non-owner") {
		t.Errorf("err = %v, want non-owner panic", err)
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	k, s := zeroCostSched()
	c := NewCond("c")
	ready := 0
	var woken []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Fork(name, SystemPriority, func(th *Thread) {
			for ready == 0 {
				c.Wait(th)
			}
			woken = append(woken, name)
		})
	}
	s.Fork("waker", SystemPriority, func(th *Thread) {
		th.Sleep(10 * sim.Microsecond)
		ready = 1
		c.Broadcast()
	})
	mustRun(t, k)
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(woken, want) {
		t.Errorf("woken = %v, want %v", woken, want)
	}
}

func TestCondMesaSemantics(t *testing.T) {
	// Signal with no waiters is lost (Mesa): the waiter must check its
	// predicate before waiting.
	k, s := zeroCostSched()
	c := NewCond("c")
	flag := false
	var sawFlag bool
	s.Fork("signaler", SystemPriority, func(th *Thread) {
		flag = true
		c.Signal() // no waiters yet: lost, but flag is set
	})
	s.Fork("waiter", SystemPriority, func(th *Thread) {
		th.Sleep(10 * sim.Microsecond)
		for !flag {
			c.Wait(th)
		}
		sawFlag = true
	})
	mustRun(t, k)
	if !sawFlag {
		t.Error("waiter never proceeded; predicate loop broken")
	}
}

func TestCondWaitTimeout(t *testing.T) {
	k, s := zeroCostSched()
	c := NewCond("c")
	var timedOut, signaled bool
	var when sim.Time
	s.Fork("w1", SystemPriority, func(th *Thread) {
		ok := c.WaitTimeout(th, 40*sim.Microsecond)
		timedOut = !ok
		when = th.Now()
	})
	s.Fork("w2", SystemPriority, func(th *Thread) {
		th.Sleep(100 * sim.Microsecond)
		ok := c.WaitTimeout(th, 1000*sim.Microsecond)
		signaled = ok
	})
	s.Fork("waker", SystemPriority, func(th *Thread) {
		th.Sleep(150 * sim.Microsecond)
		c.Signal()
	})
	mustRun(t, k)
	if !timedOut {
		t.Error("w1 should have timed out")
	}
	if when != sim.Time(40*sim.Microsecond) {
		t.Errorf("w1 woke at %v, want 40us", when)
	}
	if !signaled {
		t.Error("w2 should have been signaled")
	}
}

func TestCondTimeoutDoesNotEatSignal(t *testing.T) {
	// After w1 times out, a Signal must wake w2, not be consumed by w1's
	// dead waiter entry.
	k, s := zeroCostSched()
	c := NewCond("c")
	w2woke := false
	s.Fork("w1", SystemPriority, func(th *Thread) {
		c.WaitTimeout(th, 10*sim.Microsecond)
	})
	s.Fork("w2", SystemPriority, func(th *Thread) {
		c.Wait(th)
		w2woke = true
	})
	s.Fork("waker", SystemPriority, func(th *Thread) {
		th.Sleep(50 * sim.Microsecond)
		c.Signal()
	})
	mustRun(t, k)
	if !w2woke {
		t.Error("signal was consumed by a timed-out waiter")
	}
}

// TestCondWaitRecordOutlivesSignaledWait: a signaled WaitTimeout leaves
// its timer queued, so its pooled record must not serve the next wait
// before that timer fires. Here the next wait has no deadline of its own
// until 530us, and a record reused too early would end it at 100us.
func TestCondWaitRecordOutlivesSignaledWait(t *testing.T) {
	k, s := zeroCostSched()
	c := NewCond("c")
	var wakes []sim.Time
	var results []bool
	s.Fork("waiter", SystemPriority, func(th *Thread) {
		for _, d := range []sim.Duration{100 * sim.Microsecond, 500 * sim.Microsecond} {
			results = append(results, c.WaitTimeout(th, d))
			wakes = append(wakes, th.Now())
		}
	})
	s.Fork("waker", SystemPriority, func(th *Thread) {
		th.Sleep(30 * sim.Microsecond)
		c.Signal()
	})
	mustRun(t, k)
	want := []sim.Time{sim.Time(30 * sim.Microsecond), sim.Time(530 * sim.Microsecond)}
	if !reflect.DeepEqual(wakes, want) || !reflect.DeepEqual(results, []bool{true, false}) {
		t.Errorf("wakes %v with results %v, want %v with [true false]", wakes, results, want)
	}
}

func TestInterruptPreemptsThread(t *testing.T) {
	k, s := testSched(t)
	var intrAt, appEnd sim.Time
	s.Fork("app", AppPriority, func(th *Thread) {
		th.Compute(100 * sim.Microsecond)
		appEnd = th.Now()
	})
	k.After(50*sim.Microsecond, func() {
		s.RaiseInterrupt("net", func(h *Thread) {
			h.Compute(10 * sim.Microsecond)
			intrAt = h.Now()
		})
	})
	mustRun(t, k)
	// Interrupt entry 4us: handler computes 50->54->64.
	if want := sim.Time(64 * sim.Microsecond); intrAt != want {
		t.Errorf("interrupt finished at %v, want %v", intrAt, want)
	}
	if appEnd <= intrAt {
		t.Errorf("app finished at %v, before interrupt completion", appEnd)
	}
	if s.Interrupts() != 1 {
		t.Errorf("interrupts = %d, want 1", s.Interrupts())
	}
}

func TestInterruptMasking(t *testing.T) {
	k, s := testSched(t)
	var handlerAt sim.Time
	s.Fork("app", SystemPriority, func(th *Thread) {
		th.DisableInterrupts()
		th.Compute(100 * sim.Microsecond)
		th.EnableInterrupts() // pended interrupt delivered here
		th.Compute(50 * sim.Microsecond)
	})
	k.After(30*sim.Microsecond, func() {
		s.RaiseInterrupt("net", func(h *Thread) {
			handlerAt = h.Now()
		})
	})
	mustRun(t, k)
	// app dispatched at 20us, computes to 120us, then enables.
	if handlerAt < sim.Time(120*sim.Microsecond) {
		t.Errorf("handler ran at %v, during masked section", handlerAt)
	}
}

func TestNestedMasking(t *testing.T) {
	k, s := testSched(t)
	delivered := false
	s.Fork("app", SystemPriority, func(th *Thread) {
		th.DisableInterrupts()
		th.DisableInterrupts()
		th.Compute(10 * sim.Microsecond)
		th.EnableInterrupts() // still masked (depth 1)
		th.Compute(10 * sim.Microsecond)
		if delivered {
			k.Fatalf("interrupt delivered while still masked")
		}
		th.EnableInterrupts()
		th.Compute(10 * sim.Microsecond)
	})
	k.After(25*sim.Microsecond, func() {
		s.RaiseInterrupt("x", func(h *Thread) { delivered = true })
	})
	mustRun(t, k)
	if !delivered {
		t.Error("interrupt never delivered after unmask")
	}
}

func TestInterruptsNotNested(t *testing.T) {
	k, s := testSched(t)
	var order []string
	k.After(0, func() {
		s.RaiseInterrupt("first", func(h *Thread) {
			order = append(order, "first-start")
			h.Compute(50 * sim.Microsecond)
			order = append(order, "first-end")
		})
	})
	k.After(10*sim.Microsecond, func() {
		s.RaiseInterrupt("second", func(h *Thread) {
			order = append(order, "second")
		})
	})
	mustRun(t, k)
	want := []string{"first-start", "first-end", "second"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v (interrupts must not nest)", order, want)
	}
}

func TestInterruptHandlerCannotBlock(t *testing.T) {
	k, s := testSched(t)
	k.After(0, func() {
		s.RaiseInterrupt("bad", func(h *Thread) {
			h.Block("illegal")
		})
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "interrupt handler") {
		t.Errorf("err = %v, want interrupt-blocking panic", err)
	}
}

func TestInterruptWakesThread(t *testing.T) {
	// The paper's common pattern: an interrupt handler signals a condition
	// that a protocol thread waits on.
	k, s := testSched(t)
	c := NewCond("packet")
	arrived := false
	var when sim.Time
	s.Fork("proto", SystemPriority, func(th *Thread) {
		for !arrived {
			c.Wait(th)
		}
		when = th.Now()
	})
	k.After(40*sim.Microsecond, func() {
		s.RaiseInterrupt("rx", func(h *Thread) {
			h.Compute(5 * sim.Microsecond)
			arrived = true
			c.Signal()
		})
	})
	mustRun(t, k)
	// 40 + 4 entry + 5 compute + 2 exit, then context switch 20 -> >= 69us.
	if when < sim.Time(69*sim.Microsecond) {
		t.Errorf("thread woke at %v, too early", when)
	}
}

func TestYield(t *testing.T) {
	k, s := zeroCostSched()
	var order []string
	s.Fork("a", SystemPriority, func(th *Thread) {
		order = append(order, "a1")
		th.Yield()
		order = append(order, "a2")
	})
	s.Fork("b", SystemPriority, func(th *Thread) {
		order = append(order, "b")
	})
	mustRun(t, k)
	if want := []string{"a1", "b", "a2"}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestContextSwitchCostIsPaperValue(t *testing.T) {
	// E7: ping-pong between two threads; each handoff costs one 20us
	// context switch (§3.1).
	k, s := testSched(t)
	c := NewCond("pp")
	turn := 0
	const rounds = 100
	var done sim.Time
	for id := 0; id < 2; id++ {
		id := id
		s.Fork(fmt.Sprintf("p%d", id), SystemPriority, func(th *Thread) {
			for i := 0; i < rounds; i++ {
				for turn != id {
					c.Wait(th)
				}
				turn = 1 - id
				c.Signal()
			}
			done = th.Now()
		})
	}
	mustRun(t, k)
	total := sim.Duration(done)
	perSwitch := total.Micros() / float64(2*rounds)
	// Every handoff is dominated by the 20us context switch.
	if perSwitch < 19 || perSwitch > 25 {
		t.Errorf("per-handoff cost = %.1fus, want ~20us", perSwitch)
	}
}

func TestCPUTimeAccounting(t *testing.T) {
	k, s := zeroCostSched()
	var th *Thread
	th = s.Fork("w", SystemPriority, func(t2 *Thread) {
		t2.Compute(30 * sim.Microsecond)
		t2.Sleep(100 * sim.Microsecond)
		t2.Compute(20 * sim.Microsecond)
	})
	mustRun(t, k)
	if got := th.CPUTime(); got != 50*sim.Microsecond {
		t.Errorf("cpu time = %v, want 50us", got)
	}
	if s.busyTime != 50*sim.Microsecond {
		t.Errorf("busy time = %v, want 50us", s.busyTime)
	}
}

func TestCPUTimeAccountingWithPreemption(t *testing.T) {
	k, s := zeroCostSched()
	var app *Thread
	app = s.Fork("app", AppPriority, func(th *Thread) {
		th.Compute(100 * sim.Microsecond)
	})
	k.After(30*sim.Microsecond, func() {
		s.Fork("sys", SystemPriority, func(th *Thread) {
			th.Compute(40 * sim.Microsecond)
		})
	})
	mustRun(t, k)
	if got := app.CPUTime(); got != 100*sim.Microsecond {
		t.Errorf("app cpu time = %v, want 100us (across preemption)", got)
	}
}

func TestManyThreadsDeterministic(t *testing.T) {
	run := func() string {
		k, s := testSched(t)
		var trace []string
		m := NewMutex("m")
		for i := 0; i < 8; i++ {
			i := i
			prio := AppPriority
			if i%2 == 0 {
				prio = SystemPriority
			}
			s.Fork(fmt.Sprintf("t%d", i), prio, func(th *Thread) {
				for j := 0; j < 3; j++ {
					m.Lock(th)
					th.Compute(sim.Duration(1+i) * sim.Microsecond)
					trace = append(trace, fmt.Sprintf("%d.%d@%v", i, j, th.Now()))
					m.Unlock(th)
					th.Sleep(sim.Duration(5*i) * sim.Microsecond)
				}
			})
		}
		mustRun(t, k)
		return strings.Join(trace, ";")
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic:\n%s\n%s", a, b)
	}
}

// TestDeadlockNamesBlockReason: a thread blocked forever on a held Mutex
// is reported with its own blocking reason, not a generic label for its
// suspended proc.
func TestDeadlockNamesBlockReason(t *testing.T) {
	k, s := testSched(t)
	m := NewMutex("table")
	s.Fork("holder", SystemPriority, func(th *Thread) {
		m.Lock(th) // and never unlocks
	})
	s.Fork("waiter", SystemPriority, func(th *Thread) {
		m.Lock(th)
	})
	err := k.Run()
	if err == nil {
		t.Fatal("Run returned nil with a thread blocked forever")
	}
	if want := "cab0/waiter@mutex:table"; !strings.Contains(err.Error(), want) {
		t.Errorf("deadlock error %q does not contain %q", err, want)
	}
}

// TestIdleAfterInterruptsIsNoDeadlock: the interrupt thread a CPU keeps
// suspended between interrupts is idle, not blocked.
func TestIdleAfterInterruptsIsNoDeadlock(t *testing.T) {
	k, s := testSched(t)
	taken := 0
	for i := 0; i < 3; i++ {
		k.After(sim.Duration(i)*100*sim.Microsecond, func() {
			s.RaiseInterrupt("rx", func(h *Thread) {
				h.Compute(5 * sim.Microsecond)
				taken++
			})
		})
	}
	mustRun(t, k)
	if taken != 3 {
		t.Errorf("took %d interrupts, want 3", taken)
	}
}

// TestInterruptHandlersReused: 1,000 interrupts, some raised while a
// handler runs and so pended, are served by the CPU's one interrupt
// thread.
func TestInterruptHandlersReused(t *testing.T) {
	k, s := testSched(t)
	handlers := map[*Thread]bool{}
	taken := 0
	fn := func(h *Thread) {
		handlers[h] = true
		taken++
		h.Compute(sim.Microsecond)
	}
	for i := 0; i < 1000; i++ {
		k.After(sim.Duration(i%250)*3*sim.Microsecond, func() { s.RaiseInterrupt("rx", fn) })
	}
	mustRun(t, k)
	if taken != 1000 {
		t.Fatalf("took %d interrupts, want 1000", taken)
	}
	if len(handlers) != 1 {
		t.Errorf("1,000 interrupts used %d handler threads, want 1", len(handlers))
	}
}

// TestInterruptHandlerBlockNamesSource: a reused handler still reports
// the source of the interrupt it serves when it illegally blocks.
func TestInterruptHandlerBlockNamesSource(t *testing.T) {
	k, s := testSched(t)
	k.After(0, func() { s.RaiseInterrupt("first", func(h *Thread) {}) })
	k.After(sim.Millisecond, func() {
		s.RaiseInterrupt("dma", func(h *Thread) { h.Block("illegal") })
	})
	err := k.Run()
	if want := `interrupt handler "intr:dma" attempted to block (illegal)`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to contain %q", err, want)
	}
}

// TestZeroAllocComputeSlice guards a thread's compute slice: the slice
// timer, the wake-up and the Proc switch back must not allocate. A ticker
// keeps an event queued inside every slice, so no Compute can advance the
// clock in place and each one takes the slice path.
func TestZeroAllocComputeSlice(t *testing.T) {
	k, s := testSched(t)
	s.Fork("worker", AppPriority, func(th *Thread) {
		for {
			th.Compute(10 * sim.Microsecond)
		}
	})
	var ticks, inSlice int
	var tick func()
	tick = func() {
		ticks++
		if s.sliceTimer.Pending() {
			inSlice++
		}
		k.After(3*sim.Microsecond, tick)
	}
	k.After(sim.Microsecond, tick)
	slice := func() {
		if err := k.RunFor(30 * sim.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		slice()
	}
	if got := testing.AllocsPerRun(200, slice); got != 0 {
		t.Errorf("compute slice allocates %.1f allocs/op, want 0", got)
	}
	// Without the ticker, two of the three Computes in each 30 µs round
	// would advance in place. With it, most ticks find a slice running.
	if ticks == 0 || inSlice*2 < ticks {
		t.Errorf("%d of %d ticks found a compute slice in progress, want most", inSlice, ticks)
	}
}

// TestZeroAllocComputeInline guards the inline path: a thread whose
// Compute finds nothing queued before its end advances the clock in
// place, and that must not allocate either.
func TestZeroAllocComputeInline(t *testing.T) {
	k, s := testSched(t)
	th := s.Fork("worker", AppPriority, func(w *Thread) {
		for {
			w.Compute(sim.Microsecond)
		}
	})
	round := func() {
		if err := k.RunFor(10 * sim.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	before, cpu := k.Dispatched(), th.CPUTime()
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("inline compute allocates %.1f allocs/op, want 0", got)
	}
	// 201 rounds of 10 µs at 1 µs per Compute: each round ends in one
	// slice (its sliceDone and wake-up are the round's only events), and
	// the other nine Computes advance in place.
	if got := k.Dispatched() - before; got > 201*2 {
		t.Errorf("dispatched %d events in 201 rounds, want at most %d", got, 201*2)
	}
	if got, want := th.CPUTime()-cpu, 201*10*sim.Microsecond; got != want {
		t.Errorf("CPU time charged = %v, want %v", got, want)
	}
}

// TestReadyBeforeComputePreempts: a higher-priority thread readied while
// the running thread is in zero time takes the CPU at the runner's next
// Compute, even though no event is queued that would stop the Compute
// from advancing the clock in place.
func TestReadyBeforeComputePreempts(t *testing.T) {
	k, s := zeroCostSched()
	var trace []string
	sys := s.Fork("sys", SystemPriority, func(th *Thread) {
		th.Block("wait")
		trace = append(trace, fmt.Sprintf("sys-start@%v", th.Now()))
		th.Compute(40 * sim.Microsecond)
		trace = append(trace, fmt.Sprintf("sys-end@%v", th.Now()))
	})
	s.Fork("app", AppPriority, func(th *Thread) {
		sys.Unblock()
		if n := k.PendingEvents(); n != 0 {
			t.Errorf("%d events queued at the Compute, want 0", n)
		}
		th.Compute(100 * sim.Microsecond)
		trace = append(trace, fmt.Sprintf("app-end@%v", th.Now()))
	})
	mustRun(t, k)
	want := []string{
		"sys-start@0.000us",
		"sys-end@40.000us",
		"app-end@140.000us",
	}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("trace = %v\nwant %v", trace, want)
	}
}

// TestZeroAllocInterrupt guards interrupt delivery: once a handler thread
// exists, raising an interrupt whose handler computes and exits must not
// allocate.
func TestZeroAllocInterrupt(t *testing.T) {
	k, s := testSched(t)
	fn := func(h *Thread) { h.Compute(5 * sim.Microsecond) }
	raise := func() {
		s.RaiseInterrupt("rx", fn)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		raise()
	}
	if got := testing.AllocsPerRun(200, raise); got != 0 {
		t.Errorf("interrupt allocates %.1f allocs/op, want 0", got)
	}
}
