package sim

import (
	"sync"
	"testing"
)

// TestConcurrentKernels runs two independent kernels from two goroutines.
// Distinct kernels share no state — this is the invariant the parallel
// experiment harness (internal/bench) relies on — and `go test -race`
// over this test proves it at the data-race level: timer churn, proc
// forks, signals, and timers armed from inside a proc all proceed
// concurrently in both kernels.
func TestConcurrentKernels(t *testing.T) {
	var wg sync.WaitGroup
	run := func(seed int) {
		defer wg.Done()
		k := NewKernel()
		fired := 0
		for i := 0; i < 5000; i++ {
			d := Duration((i*seed)%997) * Microsecond
			tm := k.After(d, func() { fired++ })
			if i%3 == 0 {
				tm.Stop()
			}
		}
		sig := k.NewSignal("s")
		done := false
		k.Go("waiter", func(p *Proc) {
			for !done {
				p.Wait(sig)
			}
		})
		k.Go("signaler", func(p *Proc) {
			for i := 0; i < 100; i++ {
				sleep(p, Microsecond)
				k.After(Microsecond, func() { fired++ })
			}
			done = true
			sig.Signal()
		})
		if err := k.Run(); err != nil {
			t.Error(err)
			return
		}
		if fired == 0 {
			t.Error("no timers fired")
		}
		if k.PendingEvents() != 0 {
			t.Errorf("PendingEvents = %d after Run", k.PendingEvents())
		}
	}
	wg.Add(2)
	go run(3)
	go run(7)
	wg.Wait()
}
