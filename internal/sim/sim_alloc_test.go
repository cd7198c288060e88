package sim

// Zero-allocation guards for the kernel hot path. The event arena + free
// list make After/At/Stop/step allocation-free in steady state; these tests
// fail loudly if a change reintroduces per-event allocation (which would
// put GC pressure back on every sweep and fault campaign).

import (
	"math/rand"
	"testing"
)

// TestZeroAllocScheduleFire guards the schedule→fire cycle: once the arena
// and heap are warm, After + Run must not allocate.
func TestZeroAllocScheduleFire(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	// Warm the arena, heap and free list.
	for i := 0; i < 64; i++ {
		k.After(Microsecond, fn)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		k.After(Microsecond, fn)
		if !k.step() {
			t.Fatal("no event to step")
		}
	})
	if got != 0 {
		t.Errorf("schedule→fire allocates %.1f allocs/op, want 0", got)
	}
}

// TestZeroAllocScheduleStop guards the arm-and-cancel cycle (the TCP/RMP
// RTO pattern): After + Stop must not allocate.
func TestZeroAllocScheduleStop(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.After(Second, fn).Stop()
	}
	got := testing.AllocsPerRun(200, func() {
		tm := k.After(Second, fn)
		if !tm.Stop() {
			t.Fatal("Stop on pending timer reported false")
		}
	})
	if got != 0 {
		t.Errorf("schedule→stop allocates %.1f allocs/op, want 0", got)
	}
	if k.PendingEvents() != 0 {
		t.Errorf("stopped timers left %d events resident, want 0 (eager removal)", k.PendingEvents())
	}
}

// TestZeroAllocMarkTracingOff guards Mark with no tracer installed: layers
// emit marks unconditionally on the per-packet path, so this must stay free.
func TestZeroAllocMarkTracingOff(t *testing.T) {
	k := NewKernel()
	got := testing.AllocsPerRun(200, func() {
		k.Mark("dl.tx.0")
	})
	if got != 0 {
		t.Errorf("Mark with tracing off allocates %.1f allocs/op, want 0", got)
	}
}

// TestStopEagerlyShrinksQueue is the Timer.Stop memory-growth regression:
// cancelled timers must leave the queue immediately instead of staying
// resident until their deadline pops (long TCP runs re-arm RTOs millions of
// times while the 1s deadline never fires).
func TestStopEagerlyShrinksQueue(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 10000; i++ {
		k.After(Second, func() {}).Stop()
	}
	if got := k.PendingEvents(); got != 0 {
		t.Fatalf("PendingEvents = %d after stopping every timer, want 0", got)
	}
	if !k.Idle() {
		t.Fatal("kernel not idle after stopping every timer")
	}
}

// TestStaleHandleAfterSlotReuse: a Timer handle must go inert once its
// event fires, even after the arena slot is recycled for a new event — the
// old handle must neither report pending nor cancel the new occupant.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	k := NewKernel()
	t1 := k.After(Microsecond, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	fired := false
	t2 := k.After(Microsecond, func() { fired = true }) // reuses t1's slot
	if t1.Pending() {
		t.Error("fired timer reports pending after slot reuse")
	}
	if t1.Stop() {
		t.Error("stale handle Stop returned true")
	}
	if !t2.Pending() {
		t.Error("live timer killed by stale handle Stop")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("new event did not fire")
	}
}

// TestOrderMatchesBaseline cross-checks the 4-ary arena queue against the
// pre-overhaul container/heap implementation on randomized schedule/cancel
// workloads: firing order must be identical (the determinism contract says
// both respect (time, seq) exactly).
func TestOrderMatchesBaseline(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(200)
		delays := make([]Duration, n)
		cancel := make([]bool, n)
		for i := range delays {
			delays[i] = Duration(rng.Intn(50)) * Microsecond
			cancel[i] = rng.Intn(3) == 0
		}

		var gotNew []int
		k := NewKernel()
		for i, d := range delays {
			i := i
			tm := k.After(d, func() { gotNew = append(gotNew, i) })
			if cancel[i] {
				tm.Stop()
			}
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}

		var gotOld []int
		var q BaselineQueue
		for i, d := range delays {
			i := i
			tm := q.After(d, func() { gotOld = append(gotOld, i) })
			if cancel[i] {
				tm.Stop()
			}
		}
		q.Drain()

		if len(gotNew) != len(gotOld) {
			t.Fatalf("seed %d: fired %d events, baseline fired %d", seed, len(gotNew), len(gotOld))
		}
		for i := range gotNew {
			if gotNew[i] != gotOld[i] {
				t.Fatalf("seed %d: order diverges from baseline at %d: %d vs %d",
					seed, i, gotNew[i], gotOld[i])
			}
		}
	}
}

// TestZeroAllocProcPingPong guards the Proc switch: a Sleep, a Signal and
// a Wait on each side of a two-Proc ping-pong, once warm, must not
// allocate. Each Proc is a coroutine, and every wake-up schedules the
// Proc's own prebuilt callback.
func TestZeroAllocProcPingPong(t *testing.T) {
	k := NewKernel()
	ping, pong := k.NewSignal("ping"), k.NewSignal("pong")
	k.Go("a", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			pong.Signal()
			p.Wait(ping)
		}
	})
	k.Go("b", func(p *Proc) {
		for {
			p.Wait(pong)
			ping.Signal()
		}
	})
	round := func() {
		if err := k.RunFor(Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("Proc Wait/Signal ping-pong allocates %.1f allocs/round, want 0", got)
	}
}
