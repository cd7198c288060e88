package sim

import "testing"

// Each test below drives Kernel.Advance to one of its fall-backs and
// checks that the clock stays put there, and that it does advance one
// step short of it.

// TestAdvanceInPlace: with the queue empty and no bound in sight, a Proc
// moves the clock without dispatching anything.
func TestAdvanceInPlace(t *testing.T) {
	k := NewKernel()
	var ok bool
	var at Time
	k.Go("p", func(p *Proc) {
		ok = k.Advance(300)
		at = k.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || at != 300 {
		t.Fatalf("Advance(300) = %v, now %v; want true, 300", ok, at)
	}
	if got := k.Dispatched(); got != 1 {
		t.Errorf("dispatched %d events, want 1 (the Proc's start)", got)
	}
}

// TestAdvanceEventAtEnd: an event due exactly at now+d fires before
// anything scheduled at that instant later, so Advance must not reach
// it; one nanosecond short it may.
func TestAdvanceEventAtEnd(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {})
	var atEnd, before bool
	var now Time
	k.Go("p", func(p *Proc) {
		atEnd = k.Advance(100)
		before = k.Advance(99)
		now = k.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if atEnd {
		t.Error("Advance reached an event due exactly at now+d")
	}
	if !before || now != 99 {
		t.Errorf("Advance(99) = %v, now %v; want true, 99", before, now)
	}
}

// TestAdvanceRunUntilHorizon: RunUntil(h) dispatches events at h but not
// at h+1, so Advance may reach h and must not reach h+1.
func TestAdvanceRunUntilHorizon(t *testing.T) {
	const horizon = 1000
	k := NewKernel()
	var past, upTo bool
	var now Time
	k.Go("p", func(p *Proc) {
		past = k.Advance(horizon + 1)
		upTo = k.Advance(horizon)
		now = k.Now()
		sleep(p, 1)
	})
	if err := k.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	if past {
		t.Error("Advance moved the clock to the RunUntil horizon + 1")
	}
	if !upTo || now != horizon {
		t.Errorf("Advance(horizon) = %v, now %v; want true, %v", upTo, now, Time(horizon))
	}
}

// TestAdvanceCouplingWindow: inside a Coupling window the bound is the
// window's, not the run's horizon, since another domain may still inject
// an event at the bound.
func TestAdvanceCouplingWindow(t *testing.T) {
	const lookahead = 1000
	c := NewCoupling()
	a := c.AddDomain(NewKernel())
	b := c.AddDomain(NewKernel())
	a.AddGateway(fixedLookahead{lookahead})
	b.AddGateway(fixedLookahead{lookahead})
	b.Kernel().At(0, func() {}) // b is active at 0, so a's window ends at 0+lookahead
	k := a.Kernel()
	var limit, now Time
	var atBound, below bool
	k.Go("p", func(p *Proc) {
		limit = k.limit
		atBound = k.Advance(lookahead)
		below = k.Advance(lookahead - 1)
		now = k.Now()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if limit != lookahead {
		t.Fatalf("window bound = %v, want %v", limit, Time(lookahead))
	}
	if atBound {
		t.Error("Advance reached the Coupling window bound")
	}
	if !below || now != lookahead-1 {
		t.Errorf("Advance(bound-1) = %v, now %v; want true, %v", below, now, Time(lookahead-1))
	}
}

// TestAdvanceOutsideProc: an event callback, or a kernel that is not
// running, never advances in place.
func TestAdvanceOutsideProc(t *testing.T) {
	k := NewKernel()
	if k.Advance(10) {
		t.Error("Advance moved the clock of a kernel that is not running")
	}
	var inCallback bool
	k.At(5, func() { inCallback = k.Advance(10) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if inCallback {
		t.Error("Advance moved the clock from an event callback")
	}
	if k.Now() != 5 {
		t.Errorf("now = %v, want 5", k.Now())
	}
}

// TestAdvanceAfterFatalf: a Proc that fails runs only to its next block,
// so Advance stops advancing once Fatalf is called.
func TestAdvanceAfterFatalf(t *testing.T) {
	k := NewKernel()
	var ok bool
	k.Go("p", func(p *Proc) {
		k.Fatalf("boom")
		ok = k.Advance(10)
	})
	if err := k.Run(); err == nil {
		t.Fatal("Run returned no error after Fatalf")
	}
	if ok {
		t.Error("Advance moved the clock after Fatalf")
	}
}

// TestZeroAllocAdvance guards the inline path: a Proc that advances in
// place and then blocks once per round must not allocate.
func TestZeroAllocAdvance(t *testing.T) {
	k := NewKernel()
	k.Go("p", func(p *Proc) {
		for {
			for k.Advance(Microsecond) {
			}
			sleep(p, Microsecond)
		}
	})
	round := func() {
		if err := k.RunFor(10 * Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	before := k.Dispatched()
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("inline advance allocates %.1f allocs/round, want 0", got)
	}
	// 201 rounds of 10 µs, advanced a microsecond at a time: most of the
	// clock must have moved in place, not by events.
	if got := k.Dispatched() - before; got > 201*2 {
		t.Errorf("dispatched %d events in 201 rounds, want at most %d", got, 201*2)
	}
}

// TestRunReentryPanics: the dispatch bound doubles as the running flag,
// so a Run from inside an event is still caught.
func TestRunReentryPanics(t *testing.T) {
	k := NewKernel()
	var msg string
	k.At(5, func() { msg = mustPanic(t, func() { k.RunUntil(10) }) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if msg != "sim: Run re-entered" {
		t.Errorf("nested Run panicked with %q, want %q", msg, "sim: Run re-entered")
	}
}
