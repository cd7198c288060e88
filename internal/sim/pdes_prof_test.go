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
// windows matching the scheduler's own count, consistent drain traffic.
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
	// domain and runs inline on the scheduler goroutine.
	if r.InlineWindows != r.Windows || r.MultiWindows != 0 {
		t.Errorf("windows = %d inline / %d multi of %d, want all inline",
			r.InlineWindows, r.MultiWindows, r.Windows)
	}
	var events uint64
	for _, s := range r.PerShard {
		events += s.Events
	}
	if events != 400 {
		t.Errorf("profiled events = %d, want 400 bounces", events)
	}
	// Every bounce but the last crosses domains: 399 drained injections.
	if r.Sched.DrainInjections != 399 {
		t.Errorf("drain injections = %d, want 399", r.Sched.DrainInjections)
	}
	if r.LookaheadUS.Count == 0 {
		t.Error("no lookahead samples recorded")
	}
	// A pure-inline workload keeps the accounted fraction near 1: choose +
	// inline + drain + spawn/join is the whole scheduler loop.
	if err := r.Check(0.90); err != nil {
		t.Errorf("Check: %v\n%s", err, r.JSON())
	}
}

// TestCouplingProfileSpinVsPark forces published (multi-domain) windows
// and checks worker waits are recorded and split spin/park coherently.
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
			t.Errorf("shard %d executed no published windows", s.Shard)
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

// TestZeroAllocBarrierPathDisabled pins the tentpole's zero-cost claim at
// the exact code the worker goroutine runs per window — awaitWindow, the
// collector calls on a nil Worker, runBounded, doneSeq publish — with
// profiling disabled.
func TestZeroAllocBarrierPathDisabled(t *testing.T) {
	c := NewCoupling()
	a := c.AddDomain(NewKernel())
	c.AddDomain(NewKernel())
	c.spin = spinLimit
	if a.wprof != nil {
		t.Fatal("profile attached on a fresh coupling")
	}
	var seq uint64
	var bound Time
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		bound += 10
		a.winB.Store(int64(bound))
		a.winSeq.Store(seq)
		w := a.wprof
		t0 := w.Now()
		s, ok, parked := a.awaitWindow(seq - 1)
		if !ok || s != seq {
			t.Fatal("awaitWindow did not observe the published window")
		}
		w.Wait(t0, parked)
		t1 := w.Now()
		if a.werr = a.k.runBounded(Time(a.winB.Load())); a.werr != nil {
			t.Fatal(a.werr)
		}
		w.Compute(t1, 0)
		a.doneSeq.Store(s)
	})
	if allocs != 0 {
		t.Errorf("disabled worker barrier path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestZeroAllocSchedulerDrainDisabled guards the scheduler-side additions:
// the outbox drain with byte accounting must stay allocation-free when
// profiling is off (it runs at every window barrier).
func TestZeroAllocSchedulerDrainDisabled(t *testing.T) {
	c := NewCoupling()
	a := c.AddDomain(NewKernel())
	b := c.AddDomain(NewKernel())
	for _, d := range c.domains {
		for len(d.out) < len(c.domains) {
			d.out = append(d.out, nil)
		}
	}
	fn := func() {}
	// Warm the outbox and destination kernel arena.
	for i := 0; i < 64; i++ {
		a.SendSized(b, Time(1000+i), 64, fn)
	}
	var at Time = 2000
	allocs := testing.AllocsPerRun(200, func() {
		at++
		a.SendSized(b, at, 64, fn)
		for _, src := range c.domains {
			for dstID := range src.out {
				injs := src.out[dstID]
				if len(injs) == 0 {
					continue
				}
				dst := c.domains[dstID]
				var bytes uint64
				for _, inj := range injs {
					dst.k.At(inj.at, inj.fn)
					bytes += uint64(inj.bytes)
				}
				c.pr.DrainOut(src.id, uint64(len(injs)), bytes)
				src.out[dstID] = injs[:0]
			}
		}
	})
	if allocs != 0 {
		t.Errorf("disabled drain path allocates %.1f allocs/op, want 0", allocs)
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
