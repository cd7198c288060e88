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
		k.step()
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
// a Wait on each side of a two-Proc ping-pong, plus a Suspend/Resume pair
// with a third Proc, once warm, must not allocate. Each Proc is a
// coroutine, and every wake-up schedules the Proc's own prebuilt callback.
func TestZeroAllocProcPingPong(t *testing.T) {
	k := NewKernel()
	ping, pong := k.NewSignal("ping"), k.NewSignal("pong")
	c := k.Go("c", func(p *Proc) {
		for {
			p.Suspend()
		}
	})
	k.Go("a", func(p *Proc) {
		for {
			sleep(p, Microsecond)
			pong.Signal()
			p.Wait(ping)
		}
	})
	k.Go("b", func(p *Proc) {
		for {
			p.Wait(pong)
			c.Resume()
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
		t.Errorf("Proc Wait/Signal/Suspend/Resume ping-pong allocates %.1f allocs/round, want 0", got)
	}
}

// TestZeroAllocSpin guards the spun wait: a Spin whose step waits on a
// timer once and finishes when called again from the wake event, once
// warm, must not allocate, since the step and the wake-up are built once.
func TestZeroAllocSpin(t *testing.T) {
	k := NewKernel()
	k.Go("spin", func(p *Proc) {
		waited := false
		resume := p.Resume
		step := func() bool {
			if waited {
				return true
			}
			waited = true
			k.After(Microsecond, resume)
			return false
		}
		for {
			waited = false
			p.Spin(step)
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
		t.Errorf("a spun wait allocates %.1f allocs/round, want 0", got)
	}
}

// TestZeroAllocDrive guards a driven wait: a Proc that sleeps across 100
// callback events dispatches them on its own coroutine and returns from
// its wait without a switch. Each round of the sleeper's loop starts
// with its wake-up one past the round's start, which switches into it;
// it then queues 100 callbacks, sleeps across them to a wake-up inside
// the round, and sleeps again past the round's end. A round resumes it
// once, and once warm it must not allocate. AllocsPerRun averages over
// many rounds, so an allocation elsewhere in the process, such as the
// race detector's, cannot fail it.
func TestZeroAllocDrive(t *testing.T) {
	k := NewKernel()
	ticks := 0
	tick := func() { ticks++ }
	k.Go("sleeper", func(p *Proc) {
		sleep(p, 1)
		for {
			for i := 1; i <= 100; i++ {
				k.At(p.Now()+Time(i), tick)
			}
			sleep(p, 101)
			sleep(p, 99)
		}
	})
	round := func() {
		if err := k.RunFor(200); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	t0, r0 := ticks, k.Resumes()
	round()
	if n := ticks - t0; n != 100 {
		t.Fatalf("%d callbacks ran in a round, want 100", n)
	}
	if r := k.Resumes() - r0; r != 1 {
		t.Errorf("the sleeper was resumed %d times in a round, want 1 (its wake-up at the round's start)", r)
	}
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("a wait driven across 100 callbacks allocates %.1f allocs/round, want 0", got)
	}
}

// TestZeroAllocNestRing guards hand-offs that nest: four Procs wake each
// other in turn, and the last sleeps a round's length before it wakes
// the first. Each member switches straight into the next from its own
// wait, and the last's wake-up unwinds the chain back to it, so a round
// costs four resumes (the kernel's loop into the last, then three
// nested) where a hand-off through the kernel's goroutine cost five.
// Once warm a round must not allocate.
func TestZeroAllocNestRing(t *testing.T) {
	k := NewKernel()
	var ring [4]*Proc
	for i := range ring {
		ring[i] = k.Go("ring", func(p *Proc) {
			next := ring[(i+1)%len(ring)]
			for {
				p.Suspend()
				if i == len(ring)-1 {
					sleep(p, Microsecond)
				}
				next.Resume()
			}
		})
	}
	k.At(0, ring[0].Resume)
	round := func() {
		if err := k.RunFor(Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	r0 := k.Resumes()
	round()
	if r := k.Resumes() - r0; r != 4 {
		t.Errorf("a round of the ring resumed procs %d times, want 4", r)
	}
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("a round of the ring allocates %.1f allocs/round, want 0", got)
	}
}

// TestZeroAllocServe guards a server's cycle: a wake-up whose step finds
// an item binds a pooled coroutine, runs Handle, and returns the
// coroutine when the next step waits. Once warm it must not allocate.
func TestZeroAllocServe(t *testing.T) {
	k := NewKernel()
	s := serve(t, k, "srv", Microsecond)
	put := s.put
	round := func() {
		k.After(Microsecond, put)
		if err := k.RunFor(5 * Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	s.handled = s.handled[:0:cap(s.handled)]
	if got := testing.AllocsPerRun(200, func() {
		round()
		s.handled = s.handled[:0]
	}); got != 0 {
		t.Errorf("a served item allocates %.1f allocs/round, want 0", got)
	}
	if r := k.Resumes(); r == 0 {
		t.Error("the server never ran Handle")
	}
}
