package sim

// Tests for the coupling scheduler's wall-clock profiling instrumentation:
// profiling must not perturb virtual time, must produce an internally
// consistent breakdown, and must cost exactly zero allocations on the
// worker barrier path when disabled.

import (
	"testing"

	"nectar/internal/prof"
)

// profiledPingPong runs the two-domain ping-pong workload (optionally
// profiled) and returns the arrival schedule.
func profiledPingPong(t *testing.T, profiled bool) ([]Time, *prof.Report) {
	t.Helper()
	const latency = Duration(700)
	const rounds = 400 // enough windows that the wall clock dwarfs scheduler noise

	c := NewCoupling()
	a := c.AddDomain(NewKernel())
	b := c.AddDomain(NewKernel())
	a.AddGateway(fixedLookahead{latency})
	b.AddGateway(fixedLookahead{latency})
	var p *prof.Profile
	if profiled {
		p = prof.New(c.Domains())
		c.SetProfile(p)
	}

	var arrivals []Time
	var bounce func(self, peer *Domain)
	bounce = func(self, peer *Domain) {
		now := self.Kernel().Now()
		arrivals = append(arrivals, now)
		if len(arrivals) >= rounds {
			return
		}
		self.Send(peer, now+Time(latency), func() { bounce(peer, self) })
	}
	a.Kernel().At(0, func() { bounce(a, b) })

	// Multiple run invocations so spawn/join accrues across runs.
	if err := c.RunUntil(Time(latency) * 10); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return arrivals, p.Report()
}

// TestCouplingProfileDoesNotPerturb requires byte-identical virtual-time
// behavior with and without the profiler attached.
func TestCouplingProfileDoesNotPerturb(t *testing.T) {
	plain, _ := profiledPingPong(t, false)
	prof, _ := profiledPingPong(t, true)
	if len(plain) != len(prof) {
		t.Fatalf("arrival counts differ: %d vs %d", len(plain), len(prof))
	}
	for i := range plain {
		if plain[i] != prof[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, plain[i], prof[i])
		}
	}
}

// TestCouplingProfileReport checks the collected breakdown against what
// the ping-pong workload provably did: two runs, one event per window,
// windows split between the two shards' owners, consistent drain traffic.
func TestCouplingProfileReport(t *testing.T) {
	_, r := profiledPingPong(t, true)
	if r == nil {
		t.Fatal("no report from profiled run")
	}
	if r.Runs != 2 {
		t.Errorf("runs = %d, want 2 (RunUntil + Run)", r.Runs)
	}
	if r.Shards != 2 {
		t.Errorf("shards = %d, want 2", r.Shards)
	}
	if r.Windows == 0 {
		t.Fatal("no windows recorded")
	}
	// Ping-pong alternates domains, so every window has exactly one active
	// domain, run by that domain's owner: the scheduler for shard 0, the
	// worker for shard 1, one bounce each.
	if r.MultiWindows != 0 {
		t.Errorf("%d multi windows, want 0", r.MultiWindows)
	}
	s0, s1 := r.PerShard[0], r.PerShard[1]
	if s0.Windows != 200 || s1.Windows != 200 || s0.Windows+s1.Windows != r.Windows {
		t.Errorf("shard windows = %d + %d of %d, want 200 + 200 = all", s0.Windows, s1.Windows, r.Windows)
	}
	if s0.Events != 200 || s1.Events != 200 {
		t.Errorf("profiled events = %d + %d, want 200 bounces each", s0.Events, s1.Events)
	}
	if s0.Waits != 0 || s1.Waits < s1.Windows {
		t.Errorf("waits = %d/%d, want none for the scheduler's shard and >= %d for the worker",
			s0.Waits, s1.Waits, s1.Windows)
	}
	// Every bounce but the last crosses domains: 399 drained injections.
	if r.Sched.DrainInjections != 399 {
		t.Errorf("drain injections = %d, want 399", r.Sched.DrainInjections)
	}
	if r.LookaheadUS.Count == 0 {
		t.Error("no lookahead samples recorded")
	}
	// The scheduler's phases and its own shard's compute tile its wall
	// clock, so the accounted fraction stays near 1.
	if err := r.Check(0.90); err != nil {
		t.Errorf("Check: %v\n%s", err, r.JSON())
	}
}

// TestCouplingProfileSpinVsPark forces multi-domain windows and checks
// worker waits are recorded and split spin/park coherently. Shard 0 is the
// scheduler's own, which never waits on its behalf.
func TestCouplingProfileSpinVsPark(t *testing.T) {
	const latency = Duration(500)
	const rounds = 30

	c := NewCoupling()
	a := c.AddDomain(NewKernel())
	b := c.AddDomain(NewKernel())
	a.AddGateway(fixedLookahead{latency})
	b.AddGateway(fixedLookahead{latency})
	p := prof.New(2)
	c.SetProfile(p)

	// Symmetric load: both domains have an event in every window.
	for _, d := range []*Domain{a, b} {
		d := d
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < rounds {
				d.Kernel().After(Duration(latency)/2, tick)
			}
		}
		d.Kernel().At(0, tick)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	r := p.Report()
	if r.MultiWindows == 0 {
		t.Fatal("symmetric workload produced no multi-domain windows")
	}
	for _, s := range r.PerShard {
		if s.Windows == 0 {
			t.Errorf("shard %d executed no windows", s.Shard)
		}
		if s.Shard == 0 {
			if s.Waits != 0 || s.Parks != 0 {
				t.Errorf("shard 0: %d waits, %d parks, want none (the scheduler runs it)", s.Waits, s.Parks)
			}
			continue
		}
		if s.Waits < s.Windows {
			t.Errorf("shard %d: %d waits < %d windows (every published window is preceded by a wait)",
				s.Shard, s.Waits, s.Windows)
		}
		if s.Parks > s.Waits {
			t.Errorf("shard %d: parks %d exceed waits %d", s.Shard, s.Parks, s.Waits)
		}
	}
	if err := r.Check(0.5); err != nil {
		t.Errorf("Check: %v\n%s", err, r.JSON())
	}
}

// TestZeroAllocBarrierPathDisabled pins the zero-cost claim at the exact
// code a worker goroutine runs per window — awaitWindow, the collector
// calls on a nil Worker, runWindow, doneSeq publish — with profiling
// disabled. Domain 1 is the first domain a worker owns.
func TestZeroAllocBarrierPathDisabled(t *testing.T) {
	c := NewCoupling()
	c.AddDomain(NewKernel())
	b := c.AddDomain(NewKernel())
	c.spin = spinLimit
	if b.wprof != nil {
		t.Fatal("profile attached on a fresh coupling")
	}
	var seq uint64
	var bound Time
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		bound += 10
		b.winB.Store(int64(bound))
		b.winSeq.Store(seq)
		w := b.wprof
		t0 := w.Now()
		s, ok, parked := b.awaitWindow(seq - 1)
		if !ok || s != seq {
			t.Fatal("awaitWindow did not observe the published window")
		}
		t1 := w.Wait(t0, parked)
		if _, b.werr = b.runWindow(t1, Time(b.winB.Load())); b.werr != nil {
			t.Fatal(b.werr)
		}
		b.doneSeq.Store(s)
	})
	if allocs != 0 {
		t.Errorf("disabled worker barrier path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestZeroAllocSchedulerDrainDisabled guards the scheduler's barrier
// drain: the outbox drain with byte accounting must stay allocation-free
// when profiling is off (it runs at every window barrier).
func TestZeroAllocSchedulerDrainDisabled(t *testing.T) {
	c := NewCoupling()
	a := c.AddDomain(NewKernel())
	b := c.AddDomain(NewKernel())
	fn := func() {}
	// Warm the outbox and destination kernel arena.
	for i := 0; i < 64; i++ {
		a.SendSized(b, Time(1000+i), 64, fn)
	}
	c.drainOutboxes()
	var at Time = 2000
	allocs := testing.AllocsPerRun(200, func() {
		at++
		a.SendSized(b, at, 64, fn)
		c.drainOutboxes()
	})
	if allocs != 0 {
		t.Errorf("disabled drain path allocates %.1f allocs/op, want 0", allocs)
	}
	if got, want := b.Kernel().PendingEvents(), 64+201; got != want {
		t.Errorf("destination holds %d events, want %d drained injections", got, want)
	}
}

// TestZeroAllocOneDomainRunFor pins the one-domain coupling, which every
// one-shard cluster is: a RunFor goes through the same window loop as a
// sharded run, with no workers to start, and allocates nothing.
func TestZeroAllocOneDomainRunFor(t *testing.T) {
	c := NewCoupling()
	k := c.AddDomain(NewKernel()).Kernel()
	var tick func()
	tick = func() { k.After(Microsecond, tick) }
	k.At(0, tick)
	round := func() {
		if err := c.RunFor(10 * Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	round()
	windows := c.Windows()
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("one-domain RunFor allocates %.1f allocs/op, want 0", got)
	}
	if got := c.Windows() - windows; got != 201 {
		t.Errorf("%d windows over 201 RunFor calls, want one each", got)
	}
}

// TestCouplingProfileWindowSpanClamped requires the recorded window span
// to be the width the window actually ran: with a lookahead far beyond
// the horizon, RunFor(d) coalesces into windows clamped at the horizon,
// so no span may exceed d.
func TestCouplingProfileWindowSpanClamped(t *testing.T) {
	const d = 100 * Microsecond
	c := NewCoupling()
	a := c.AddDomain(NewKernel())
	b := c.AddDomain(NewKernel())
	a.AddGateway(fixedLookahead{Second})
	b.AddGateway(fixedLookahead{Second})
	p := prof.New(2)
	c.SetProfile(p)
	for _, dom := range []*Domain{a, b} {
		k := dom.Kernel()
		var tick func()
		tick = func() { k.After(10*Microsecond, tick) }
		k.At(0, tick)
	}
	if err := c.RunFor(d); err != nil {
		t.Fatal(err)
	}
	r := p.Report()
	if r.WindowSpanUS.Count == 0 {
		t.Fatal("no windows recorded")
	}
	if limit := float64(d) / float64(Microsecond); r.WindowSpanUS.Max > limit {
		t.Errorf("window_span_us max = %g, want <= %g (the RunFor horizon)", r.WindowSpanUS.Max, limit)
	}
}
