package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAfterOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.After(30*Microsecond, func() { got = append(got, 3) })
	k.After(10*Microsecond, func() { got = append(got, 1) })
	k.After(20*Microsecond, func() { got = append(got, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	if k.Now() != Time(30*Microsecond) {
		t.Errorf("final time = %v, want 30us", k.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(5*Microsecond, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of order: %v", got)
		}
	}
}

func TestAtPastPanics(t *testing.T) {
	k := NewKernel()
	k.After(10*Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		k.At(Time(5*Microsecond), func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTimerStop(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.After(10*Microsecond, func() { fired = true })
	if !tm.Pending() {
		t.Error("timer should be pending before firing")
	}
	if !tm.Stop() {
		t.Error("first Stop should report true")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	k := NewKernel()
	tm := k.After(1*Microsecond, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tm.Stop() {
		t.Error("Stop after firing should report false")
	}
	if tm.Pending() {
		t.Error("fired timer still pending")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	k := NewKernel()
	var fired []int
	k.After(10*Microsecond, func() { fired = append(fired, 1) })
	k.After(50*Microsecond, func() { fired = append(fired, 2) })
	if err := k.RunUntil(Time(20 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fired, []int{1}) {
		t.Errorf("fired = %v, want [1]", fired)
	}
	if k.Now() != Time(20*Microsecond) {
		t.Errorf("now = %v, want 20us (clock advances to horizon)", k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fired, []int{1, 2}) {
		t.Errorf("fired = %v, want [1 2]", fired)
	}
}

// sleep blocks p for d of virtual time the way the threads package's
// Sleep does: it queues p's wake-up at now+d and suspends.
func sleep(p *Proc, d Duration) {
	p.k.schedule(p.k.now+Time(d), p.wakeFn)
	p.Suspend()
}

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var stamps []Time
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			sleep(p, 7*Microsecond)
			stamps = append(stamps, p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(7 * Microsecond), Time(14 * Microsecond), Time(21 * Microsecond)}
	if !reflect.DeepEqual(stamps, want) {
		t.Errorf("stamps = %v, want %v", stamps, want)
	}
}

func TestSignalWakesFIFO(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal("s")
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Go(name, func(p *Proc) {
			p.Wait(s)
			order = append(order, name)
		})
	}
	k.Go("waker", func(p *Proc) {
		sleep(p, 1*Microsecond)
		s.Signal()
		sleep(p, 1*Microsecond)
		s.Signal()
		sleep(p, 1*Microsecond)
		s.Signal()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(order, want) {
		t.Errorf("wake order = %v, want %v", order, want)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal("orphan")
	k.Go("stuck", func(p *Proc) { p.Wait(s) })
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Errorf("deadlock error %q does not name the blocked proc", err)
	}
}

func TestRunUntilToleratesBlockedProcs(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal("server")
	k.Go("server", func(p *Proc) { p.Wait(s) })
	if err := k.RunUntil(Time(Millisecond)); err != nil {
		t.Fatalf("RunUntil should tolerate blocked procs: %v", err)
	}
}

// mustPanic runs fn and reports the message it panics with, failing the
// test if it does not panic. It may run inside a Proc, so it does not
// call t.Fatal.
func mustPanic(t *testing.T, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		fn()
	}()
	if msg == "<nil>" {
		t.Error("no panic")
	}
	return msg
}

func TestResumeRunningOrSleepingPanics(t *testing.T) {
	k := NewKernel()
	var running string
	k.Go("runner", func(p *Proc) { running = mustPanic(t, p.Resume) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(running, `"runner", which is running`) {
		t.Errorf("Resume of a running proc panicked with %q", running)
	}
}

func TestDoubleResumePanics(t *testing.T) {
	k := NewKernel()
	woken := 0
	p := k.Go("p", func(p *Proc) {
		p.Suspend()
		woken++
	})
	var msg string
	k.After(Microsecond, func() {
		p.Resume()
		msg = mustPanic(t, p.Resume)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, `"p", which is resumed`) {
		t.Errorf("second Resume panicked with %q", msg)
	}
	if woken != 1 {
		t.Errorf("proc woke %d times, want 1", woken)
	}
}

func TestBareSuspendIsDeadlock(t *testing.T) {
	k := NewKernel()
	k.Go("forgotten", func(p *Proc) { p.Suspend() })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "forgotten@suspended") {
		t.Fatalf("want deadlock naming forgotten@suspended, got %v", err)
	}
}

// idleWorker describes its Proc as idle while it waits for a job.
type idleWorker struct{ idle bool }

func (w *idleWorker) Describe() string {
	if w.idle {
		return ""
	}
	return "busy"
}

// TestIdleIsNotDeadlock: a suspended Proc whose Describer describes it
// as "" is idle, not blocked; once it describes itself otherwise, it is
// reported.
func TestIdleIsNotDeadlock(t *testing.T) {
	k := NewKernel()
	rounds := 0
	w := &idleWorker{}
	p := k.Go("worker", func(p *Proc) {
		for {
			w.idle = true
			p.Suspend()
			w.idle = false
			rounds++
		}
	})
	p.SetDescriber(w)
	k.After(Microsecond, p.Resume)
	if err := k.Run(); err != nil {
		t.Fatalf("an idle proc reported as %v", err)
	}
	if rounds != 1 {
		t.Errorf("worker ran %d rounds, want 1", rounds)
	}
	w.idle = false
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "worker@busy") {
		t.Errorf("want deadlock naming worker@busy, got %v", err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Go("bomb", func(p *Proc) {
		sleep(p, 1*Microsecond)
		panic("boom")
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic propagation", err)
	}
}

// TestProcPanicReportsStack checks that a panic inside a Proc's coroutine
// is recovered there and reaches Run as the "proc panicked" error, with
// the panicking goroutine's stack.
func TestProcPanicReportsStack(t *testing.T) {
	k := NewKernel()
	k.Go("bomb", func(p *Proc) {
		sleep(p, Microsecond)
		panic("boom")
	})
	err := k.Run()
	if err == nil {
		t.Fatal("Run returned nil after a proc panicked")
	}
	msg := err.Error()
	for _, want := range []string{`sim: proc "bomb" panicked: boom`, "goroutine ", "TestProcPanicReportsStack"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error lacks %q:\n%s", want, msg)
		}
	}
}

func TestFatalfStopsRun(t *testing.T) {
	k := NewKernel()
	ran := false
	k.After(1*Microsecond, func() { k.Fatalf("stop: %d", 42) })
	k.After(2*Microsecond, func() { ran = true })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "stop: 42") {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Error("event after Fatalf still ran")
	}
}

func TestProcSpawnsProc(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Go("parent", func(p *Proc) {
		sleep(p, 1*Microsecond)
		k.Go("child", func(c *Proc) {
			sleep(c, 1*Microsecond)
			order = append(order, "child")
		})
		sleep(p, 5*Microsecond)
		order = append(order, "parent")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"child", "parent"}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestPendingEvents(t *testing.T) {
	k := NewKernel()
	t1 := k.After(Microsecond, func() {})
	k.After(2*Microsecond, func() {})
	if got := k.PendingEvents(); got != 2 {
		t.Errorf("pending = %d, want 2", got)
	}
	t1.Stop()
	if got := k.PendingEvents(); got != 1 {
		t.Errorf("pending after stop = %d, want 1", got)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !k.Idle() {
		t.Error("kernel not idle after Run")
	}
}

func TestBlockingFromOutsideProcPanics(t *testing.T) {
	k := NewKernel()
	var p *Proc
	p = k.Go("p", func(self *Proc) { sleep(self, Microsecond) })
	k.After(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("Sleep from kernel context did not panic")
			}
		}()
		sleep(p, Microsecond)
	})
	_ = k.Run() // panic is recovered inside the event; run may or may not error
}

// Property: for any set of delays, callbacks fire in nondecreasing time
// order, and equal times fire in scheduling order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel()
		type firing struct {
			at  Time
			seq int
		}
		var fired []firing
		for i, d := range delays {
			i := i
			k.After(Duration(d)*Microsecond, func() {
				fired = append(fired, firing{k.Now(), i})
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		// Cross-check against a sort of the inputs.
		var want []Time
		for _, d := range delays {
			want = append(want, Time(Duration(d)*Microsecond))
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range fired {
			if fired[i].at != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: determinism — running the same randomized proc workload twice
// yields an identical execution trace.
func TestDeterminismProperty(t *testing.T) {
	runOnce := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var trace []string
		nproc := 3 + rng.Intn(5)
		for i := 0; i < nproc; i++ {
			i := i
			delays := make([]Duration, 5)
			for j := range delays {
				delays[j] = Duration(rng.Intn(50)) * Microsecond
			}
			k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j, d := range delays {
					sleep(p, d)
					trace = append(trace, fmt.Sprintf("p%d.%d@%v", i, j, p.Now()))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(trace, ";")
	}
	for seed := int64(0); seed < 10; seed++ {
		a := runOnce(seed)
		b := runOnce(seed)
		if a != b {
			t.Fatalf("seed %d: nondeterministic trace\n a=%s\n b=%s", seed, a, b)
		}
	}
}

func TestDurationHelpers(t *testing.T) {
	if Micros(12.5) != 12500*Nanosecond {
		t.Errorf("Micros(12.5) = %d", Micros(12.5))
	}
	if d := 1500 * Nanosecond; d.Micros() != 1.5 {
		t.Errorf("Micros() = %v", d.Micros())
	}
	if Second.Seconds() != 1.0 {
		t.Errorf("Seconds() = %v", Second.Seconds())
	}
	if s := (42 * Microsecond).String(); s != "42.000us" {
		t.Errorf("String() = %q", s)
	}
}

func TestTimerWhen(t *testing.T) {
	k := NewKernel()
	tm := k.After(10*Microsecond, func() {})
	if got := tm.When(); got != Time(10*Microsecond) {
		t.Errorf("When = %v, want 10us", got)
	}

	// Regression: When on zero, stopped, and fired timers must not panic
	// and must return the zero Time.
	var zeroTimer Timer
	if got := zeroTimer.When(); got != 0 {
		t.Errorf("zero timer When = %v, want 0", got)
	}
	if zeroTimer.Stop() {
		t.Error("zero timer Stop = true, want false")
	}
	if zeroTimer.Pending() {
		t.Error("zero timer Pending = true, want false")
	}
	tm.Stop()
	if got := tm.When(); got != 0 {
		t.Errorf("stopped timer When = %v, want 0", got)
	}
	fired := k.After(1*Microsecond, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fired.When(); got != 0 {
		t.Errorf("fired timer When = %v, want 0", got)
	}
}

func TestObserverSlot(t *testing.T) {
	k := NewKernel()
	if k.Observer() != nil {
		t.Fatal("fresh kernel should have no observer")
	}
	type marker struct{ n int }
	m := &marker{n: 7}
	k.SetObserver(m)
	got, ok := k.Observer().(*marker)
	if !ok || got != m {
		t.Fatalf("Observer = %v, want %v", k.Observer(), m)
	}
}
