package hostif

import (
	"testing"

	"nectar/internal/hw/cab"
	"nectar/internal/hw/host"
	"nectar/internal/model"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

func pair(t *testing.T) (*sim.Kernel, *IF, *host.Host) {
	t.Helper()
	k := sim.NewKernel()
	cost := model.Default1990()
	c := cab.NewSized(k, cost, 1, 0)
	h := host.New(k, cost, "host1", c)
	return k, New(h, c), h
}

func TestPostToCABRunsInInterruptContext(t *testing.T) {
	k, f, h := pair(t)
	ran := false
	var wasIntr bool
	h.Run("proc", func(th *threads.Thread) {
		f.PostToCAB(exec.OnHost(th, h), "ping", func(ct *threads.Thread) {
			ran = true
			wasIntr = ct.IsInterrupt()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("posted request never ran on the CAB")
	}
	if !wasIntr {
		t.Error("request did not run in interrupt context")
	}
}

func TestPostToCABFromCABPanics(t *testing.T) {
	k, f, _ := pair(t)
	f.CAB().Sched.Fork("bad", threads.SystemPriority, func(th *threads.Thread) {
		f.PostToCAB(exec.OnCAB(th), "x", func(*threads.Thread) {})
	})
	if err := k.Run(); err == nil {
		t.Error("PostToCAB from CAB context did not fail")
	}
}

func TestHostCondPollingWait(t *testing.T) {
	k, f, h := pair(t)
	hc := f.NewHostCond("c")
	var wokeAt sim.Time
	h.Run("waiter", func(th *threads.Thread) {
		ctx := exec.OnHost(th, h)
		since := hc.Poll(ctx)
		hc.WaitPoll(ctx, since)
		wokeAt = th.Now()
	})
	// A CAB thread signals at ~200us.
	f.CAB().Sched.Fork("signaler", threads.SystemPriority, func(th *threads.Thread) {
		th.Sleep(200 * sim.Microsecond)
		hc.Signal(exec.OnCAB(th))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt < sim.Time(200*sim.Microsecond) {
		t.Errorf("woke at %v, before signal", wokeAt)
	}
	// Polling latency is a few microseconds past the signal (which lands
	// at ~240us after the signaler's dispatch and wake-up context
	// switches), not an interrupt round trip.
	if wokeAt > sim.Time(260*sim.Microsecond) {
		t.Errorf("woke at %v; polling path too slow", wokeAt)
	}
}

func TestHostCondBlockingWait(t *testing.T) {
	k, f, h := pair(t)
	hc := f.NewHostCond("c")
	var wokeAt sim.Time
	h.Run("server", func(th *threads.Thread) {
		ctx := exec.OnHost(th, h)
		since := hc.Poll(ctx)
		hc.WaitBlocking(ctx, since)
		wokeAt = th.Now()
	})
	f.CAB().Sched.Fork("signaler", threads.SystemPriority, func(th *threads.Thread) {
		th.Sleep(500 * sim.Microsecond)
		hc.Signal(exec.OnCAB(th))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt < sim.Time(500*sim.Microsecond) {
		t.Errorf("woke at %v, before signal", wokeAt)
	}
}

func TestHostCondBlockingNoMissedWakeup(t *testing.T) {
	// Signal arrives between Poll and WaitBlocking: the since-guard must
	// prevent a lost wakeup.
	k, f, h := pair(t)
	hc := f.NewHostCond("c")
	done := false
	h.Run("waiter", func(th *threads.Thread) {
		ctx := exec.OnHost(th, h)
		since := hc.Poll(ctx)
		// Simulate a delay during which the CAB signals.
		th.Sleep(300 * sim.Microsecond)
		hc.WaitBlocking(ctx, since) // must return immediately
		done = true
	})
	f.CAB().Sched.Fork("signaler", threads.SystemPriority, func(th *threads.Thread) {
		th.Sleep(100 * sim.Microsecond)
		hc.Signal(exec.OnCAB(th))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("wakeup lost despite since-guard")
	}
}

func TestHostSignalsHostCond(t *testing.T) {
	// Both CAB threads and host processes can signal a host condition
	// (paper §3.2).
	k, f, h := pair(t)
	hc := f.NewHostCond("c")
	woke := false
	h.Run("waiter", func(th *threads.Thread) {
		ctx := exec.OnHost(th, h)
		since := hc.Poll(ctx)
		hc.WaitBlocking(ctx, since)
		woke = true
	})
	h.Run("signaler", func(th *threads.Thread) {
		th.Sleep(100 * sim.Microsecond)
		hc.Signal(exec.OnHost(th, h))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Error("host-side signal did not wake the waiter")
	}
}

func TestCallCAB(t *testing.T) {
	k, f, h := pair(t)
	var got uint32
	var when sim.Time
	h.Run("caller", func(th *threads.Thread) {
		ctx := exec.OnHost(th, h)
		got = f.CallCAB(ctx, "add", func(ct *threads.Thread) uint32 {
			ct.Compute(10 * sim.Microsecond)
			return 41 + 1
		})
		when = th.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("result = %d, want 42", got)
	}
	if when == 0 {
		t.Error("call took no time")
	}
}

func TestCallCABSerialization(t *testing.T) {
	// Two RPCs from one host process complete in order with sane timing.
	k, f, h := pair(t)
	var results []uint32
	h.Run("caller", func(th *threads.Thread) {
		ctx := exec.OnHost(th, h)
		for i := uint32(0); i < 3; i++ {
			i := i
			r := f.CallCAB(ctx, "echo", func(*threads.Thread) uint32 { return i })
			results = append(results, r)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[0] != 0 || results[1] != 1 || results[2] != 2 {
		t.Errorf("results = %v", results)
	}
}

func TestManyPostsDrainInOrder(t *testing.T) {
	k, f, h := pair(t)
	var order []int
	h.Run("poster", func(th *threads.Thread) {
		ctx := exec.OnHost(th, h)
		for i := 0; i < 10; i++ {
			i := i
			f.PostToCAB(ctx, "n", func(*threads.Thread) { order = append(order, i) })
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("drained %d of 10", len(order))
	}
}
