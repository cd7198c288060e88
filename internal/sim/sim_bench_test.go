package sim

// Kernel micro-benchmarks: these measure the REAL (wall-clock) cost of the
// simulation substrate itself — how many virtual events and thread
// handoffs the host machine executes per second — so regressions in the
// kernel's data structures show up in `go test -bench`.

import "testing"

func BenchmarkEventDispatch(b *testing.B) {
	k := NewKernel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(Microsecond, func() {})
		if i%1024 == 1023 {
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTimerChurn(b *testing.B) {
	// Arm-and-cancel is the protocol-stack hot path (every RMP/TCP
	// transmission re-arms its retransmission timer).
	k := NewKernel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := k.After(Second, func() {})
		t.Stop()
		if i%4096 == 4095 {
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkProcHandoff(b *testing.B) {
	// Two procs ping-ponging through signals: one iteration = two kernel
	// handoffs (goroutine switches). Predicated waits avoid lost signals.
	k := NewKernel()
	sA := k.NewSignal("sA")
	sB := k.NewSignal("sB")
	turn := 0
	n := b.N
	k.Go("a", func(p *Proc) {
		for i := 0; i < n; i++ {
			for turn != 0 {
				p.Wait(sA)
			}
			turn = 1
			sB.Signal()
		}
	})
	k.Go("b", func(p *Proc) {
		for i := 0; i < n; i++ {
			for turn != 1 {
				p.Wait(sB)
			}
			turn = 0
			sA.Signal()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkProcRing(b *testing.B) {
	// Four procs waking each other in turn: one iteration = four
	// hand-offs, each from a Proc's wait straight into the next Proc,
	// and the wake-up of the first, lowest on the chain, unwinds it. A
	// ring, unlike a two-Proc ping-pong, nests.
	k := NewKernel()
	var ring [4]*Proc
	n := b.N
	for i := range ring {
		ring[i] = k.Go("ring", func(p *Proc) {
			next := ring[(i+1)%len(ring)]
			for j := 0; j < n; j++ {
				p.Suspend()
				if i < len(ring)-1 || j < n-1 {
					next.Resume()
				}
			}
		})
	}
	k.At(0, ring[0].Resume)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkScheduleFireStop(b *testing.B) {
	// The acceptance-criteria cycle: one short timer that fires, one long
	// timer that is cancelled — the protocol stack's steady-state mix.
	k := NewKernel()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(Microsecond, fn)
		t := k.After(Second, fn)
		t.Stop()
		if i%1024 == 1023 {
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// Baseline* benchmarks measure the pre-overhaul boxed container/heap queue
// (see baseline_test.go) so `go test -bench Baseline` quantifies the
// kernel's speedup over it.

func BenchmarkBaselineEventDispatch(b *testing.B) {
	var q BaselineQueue
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After(Microsecond, fn)
		if i%1024 == 1023 {
			q.Drain()
		}
	}
	q.Drain()
}

func BenchmarkBaselineTimerChurn(b *testing.B) {
	var q BaselineQueue
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := q.After(Second, fn)
		t.Stop()
		if i%4096 == 4095 {
			q.Drain()
		}
	}
}

func BenchmarkBaselineScheduleFireStop(b *testing.B) {
	var q BaselineQueue
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After(Microsecond, fn)
		t := q.After(Second, fn)
		t.Stop()
		if i%1024 == 1023 {
			q.Drain()
		}
	}
	q.Drain()
}

func BenchmarkHeapOrdering(b *testing.B) {
	// Worst-ish case: interleaved far/near timestamps exercising heap
	// percolation.
	k := NewKernel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Duration(i%97) * Microsecond
		k.After(d, func() {})
		if i%512 == 511 {
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
