package hostif

import (
	"fmt"
	"testing"

	"nectar/internal/hw/cab"
	"nectar/internal/hw/host"
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// pollIteration is one poll iteration's virtual time: HostPollIteration
// of loop and one VME word.
func pollIteration(cost *model.CostModel) sim.Duration {
	return cost.HostPollIteration + cost.VMEWord
}

// newPollers builds n host/CAB pairs on one kernel whose host processes
// poll their conditions WaitPoll after WaitPoll, a new one whenever the
// test bumps the value. The processes start together, so their slices
// end at the same instants, and no poller can advance in place past
// another's: every iteration is two slice ends and two queued wake-ups.
func newPollers(n int) (*sim.Kernel, []*IF, []*HostCond) {
	k := sim.NewKernel()
	cost := model.Default1990()
	fs := make([]*IF, n)
	hcs := make([]*HostCond, n)
	for i := range n {
		c := cab.NewSized(k, cost, wire.NodeID(i+1), 0)
		h := host.New(k, cost, fmt.Sprintf("host%d", i+1), c)
		f := New(h, c)
		hc := f.NewHostCond("c", "")
		fs[i], hcs[i] = f, hc
		h.Run("poller", func(th *threads.Thread) {
			ctx := exec.OnHost(th, h)
			for {
				hc.WaitPoll(ctx, hc.Poll(ctx))
			}
		})
	}
	return k, fs, hcs
}

// pioWords sums the PIO words of every bus on k: one per poll
// iteration, plus one per Poll.
func pioWords(k *sim.Kernel) uint64 {
	return obs.MergeSnapshots(k.Now(), obs.Ensure(k).Metrics()).Sum(obs.LayerVME, "pio_words")
}

// benchWaitPoll measures n pollers on one kernel that are never
// signaled, in ns per poll iteration of one poller.
func benchWaitPoll(b *testing.B, n int) {
	k, fs, _ := newPollers(n)
	cost := fs[0].cost
	if err := k.RunFor(100 * sim.Microsecond); err != nil {
		b.Fatal(err)
	}
	words := pioWords(k)
	b.ReportAllocs()
	b.ResetTimer()
	// n pollers make n iterations per pollIteration of virtual time.
	if err := k.RunFor(sim.Duration(b.N) * pollIteration(cost) / sim.Duration(n)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got := pioWords(k) - words; got+uint64(n) < uint64(b.N) || got > uint64(b.N)+uint64(n) {
		b.Fatalf("%d poll iterations in a run sized for %d", got, b.N)
	}
}

// BenchmarkWaitPollSolo is one host polling alone on its kernel: every
// iteration advances in place, with no event.
func BenchmarkWaitPollSolo(b *testing.B) { benchWaitPoll(b, 1) }

// BenchmarkWaitPollPair is two hosts polling on one kernel, as rtt's
// client and echo server do: neither advances past the other's slice
// ends, so every iteration of each is two slice ends and two wake-ups
// that another event shares the instant with.
func BenchmarkWaitPollPair(b *testing.B) { benchWaitPoll(b, 2) }
