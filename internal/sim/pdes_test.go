package sim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// fixedLookahead is the simplest Gateway: any future output, to any
// domain, is at least lookahead after the owning domain's activity floor.
type fixedLookahead struct {
	lookahead Duration
}

func (g fixedLookahead) EarliestOutputTo(dst int, actFloor Time) Time {
	if actFloor >= MaxTime {
		return MaxTime
	}
	return actFloor + Time(g.lookahead)
}

// TestCouplingPingPong bounces a message between two domains with a fixed
// link latency and checks the arrival schedule is exact.
func TestCouplingPingPong(t *testing.T) {
	const latency = Duration(700)
	const rounds = 50

	c := NewCoupling()
	a := c.AddDomain(NewKernel())
	b := c.AddDomain(NewKernel())
	a.AddGateway(fixedLookahead{latency})
	b.AddGateway(fixedLookahead{latency})

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

	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != rounds {
		t.Fatalf("got %d arrivals, want %d", len(arrivals), rounds)
	}
	for i, at := range arrivals {
		if want := Time(i) * Time(latency); at != want {
			t.Fatalf("arrival %d at %v, want %v", i, at, want)
		}
	}
}

// TestCouplingMatchesSequential runs the same three-node token-passing
// workload on one kernel and on a three-domain coupling and requires the
// identical event log.
func TestCouplingMatchesSequential(t *testing.T) {
	const latency = Duration(1000)
	const local = Duration(130) // local processing between hops
	const rounds = 40

	run := func(build func(i int) (schedule func(dst int, at Time, fn func()), now func(i int) Time), runAll func() error) ([]string, error) {
		var log []string
		sched, now := build(0)
		var hop func(node, count int)
		hop = func(node, count int) {
			log = append(log, fmt.Sprintf("%d@%v", node, now(node)))
			if count >= rounds {
				return
			}
			next := (node + 1) % 3
			at := now(node) + Time(local) + Time(latency)
			sched(next, at, func() { hop(next, count+1) })
		}
		sched(0, 0, func() { hop(0, 0) })
		err := runAll()
		return log, err
	}

	// Sequential reference: single kernel.
	seqK := NewKernel()
	seqLog, err := run(func(int) (func(int, Time, func()), func(int) Time) {
		return func(_ int, at Time, fn func()) { seqK.At(at, fn) }, func(int) Time { return seqK.Now() }
	}, seqK.Run)
	if err != nil {
		t.Fatal(err)
	}

	// Coupled: three domains.
	c := NewCoupling()
	doms := make([]*Domain, 3)
	for i := range doms {
		doms[i] = c.AddDomain(NewKernel())
		doms[i].AddGateway(fixedLookahead{latency})
	}
	var cur atomic.Int32 // domain whose event is executing (test-only bookkeeping)
	parLog, err := run(func(int) (func(int, Time, func()), func(int) Time) {
		return func(dst int, at Time, fn func()) {
				src := doms[cur.Load()]
				src.Send(doms[dst], at, func() { cur.Store(int32(dst)); fn() })
			}, func(i int) Time {
				return doms[i].Kernel().Now()
			}
	}, c.Run)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := strings.Join(parLog, "\n"), strings.Join(seqLog, "\n"); got != want {
		t.Fatalf("coupled log differs from sequential:\n got: %s\nwant: %s", got, want)
	}
}

// TestCouplingRunUntilAdvancesClocks checks that all domain clocks agree at
// the horizon even when a domain had no events.
func TestCouplingRunUntilAdvancesClocks(t *testing.T) {
	c := NewCoupling()
	a := c.AddDomain(NewKernel())
	b := c.AddDomain(NewKernel())
	a.AddGateway(fixedLookahead{100})
	b.AddGateway(fixedLookahead{100})
	fired := false
	a.Kernel().At(500, func() { fired = true })
	if err := c.RunUntil(2000); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event below horizon did not fire")
	}
	if a.Kernel().Now() != 2000 || b.Kernel().Now() != 2000 || c.Now() != 2000 {
		t.Fatalf("clocks not at horizon: a=%v b=%v c=%v", a.Kernel().Now(), b.Kernel().Now(), c.Now())
	}
	// And events strictly past the horizon stay queued.
	a.Kernel().At(3000, func() {})
	if err := c.RunUntil(2500); err != nil {
		t.Fatal(err)
	}
	if got := a.Kernel().PendingEvents(); got != 1 {
		t.Fatalf("event past horizon executed early (pending=%d)", got)
	}
}

// TestCouplingZeroLookaheadStalls checks the scheduler reports a stall
// instead of spinning when a gateway has no lookahead.
func TestCouplingZeroLookaheadStalls(t *testing.T) {
	c := NewCoupling()
	a := c.AddDomain(NewKernel())
	b := c.AddDomain(NewKernel())
	a.AddGateway(fixedLookahead{0})
	b.AddGateway(fixedLookahead{0})
	a.Kernel().At(10, func() {})
	err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("want stall error, got %v", err)
	}
}

// TestCouplingDeadlockNamesProcs checks drain-mode deadlock reporting
// aggregates blocked procs across domains.
func TestCouplingDeadlockNamesProcs(t *testing.T) {
	c := NewCoupling()
	a := c.AddDomain(NewKernel())
	b := c.AddDomain(NewKernel())
	a.AddGateway(fixedLookahead{100})
	b.AddGateway(fixedLookahead{100})
	sig := b.Kernel().NewSignal("never")
	b.Kernel().Go("stuck", func(p *Proc) { p.Wait(sig) })
	a.Kernel().At(5, func() {})
	err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("want deadlock naming proc, got %v", err)
	}
}

// TestCouplingPropagatesFailure checks a Fatalf in one domain aborts the run.
func TestCouplingPropagatesFailure(t *testing.T) {
	c := NewCoupling()
	a := c.AddDomain(NewKernel())
	b := c.AddDomain(NewKernel())
	a.AddGateway(fixedLookahead{100})
	b.AddGateway(fixedLookahead{100})
	b.Kernel().At(50, func() { b.Kernel().Fatalf("boom at %v", b.Kernel().Now()) })
	a.Kernel().At(60, func() {})
	err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want boom, got %v", err)
	}
}
