package hostif

import (
	"fmt"
	"slices"
	"testing"

	"nectar/internal/hw/cab"
	"nectar/internal/hw/host"
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// loopWaitPoll is WaitPoll as a straight-line loop in the host process,
// the form the Spin step replaces. It is the oracle the step must match
// event for event. checks, if not nil, records the instant of each check.
func loopWaitPoll(hc *HostCond, ctx exec.Context, since uint32, checks *[]sim.Time) {
	for {
		ctx.Compute(hc.f.cost.HostPollIteration)
		ctx.Words(1)
		if checks != nil {
			*checks = append(*checks, ctx.Now())
		}
		if hc.poll != since {
			return
		}
	}
}

// waitFn is a WaitPoll implementation under test.
type waitFn func(hc *HostCond, ctx exec.Context, since uint32)

func spinWait(hc *HostCond, ctx exec.Context, since uint32) { hc.WaitPoll(ctx, since) }

func oracleWait(hc *HostCond, ctx exec.Context, since uint32) { loopWaitPoll(hc, ctx, since, nil) }

// pollRig is one host/CAB pair with a host process polling one condition.
type pollRig struct {
	k      *sim.Kernel
	f      *IF
	h      *host.Host
	hc     *HostCond
	waiter *threads.Thread
	exit   sim.Time // when the wait returned, 0 until it has
}

func newPollRig(wait waitFn) *pollRig {
	k := sim.NewKernel()
	cost := model.Default1990()
	c := cab.NewSized(k, cost, 1, 0)
	h := host.New(k, cost, "host1", c)
	r := &pollRig{k: k, f: New(h, c), h: h}
	r.hc = r.f.NewHostCond("c", "")
	r.waiter = h.Run("poller", func(th *threads.Thread) {
		ctx := exec.OnHost(th, h)
		wait(r.hc, ctx, r.hc.Poll(ctx))
		r.exit = th.Now()
	})
	return r
}

// signalAfter forks a CAB thread that computes d and then signals the
// condition, recording when the signal landed.
func (r *pollRig) signalAfter(d sim.Duration, at *sim.Time) {
	r.f.CAB().Sched.Fork("signaler", threads.SystemPriority, func(th *threads.Thread) {
		th.Compute(d)
		r.hc.Signal(exec.OnCAB(th))
		if at != nil {
			*at = th.Now()
		}
	})
}

// pollOutcome is everything a poll loop's timing can move.
type pollOutcome struct {
	exit                      sim.Time
	cpu                       sim.Duration
	hostBusy, cabBusy         uint64 // busy_ns gauges
	hostSwitches, cabSwitches uint64
	pioWords, dmaBytes        uint64
	busWords                  uint64 // pio_words as the bus's own Gauges reports it
	dispatched                uint64
}

func (r *pollRig) outcome() pollOutcome {
	var o pollOutcome
	r.direct(&o, true)
	r.registry(&o)
	return o
}

// direct reads into o the poller's exit, its CPU time and the host bus's
// own pio_words gauge, the CPU time first when cpuFirst. Read before any
// snapshot of the registry, each must bring a streaming poller up to
// date by itself.
func (r *pollRig) direct(o *pollOutcome, cpuFirst bool) {
	o.exit = r.exit
	cpu := func() { o.cpu = r.waiter.CPUTime() }
	bus := func() {
		r.h.Bus.Gauges(func(_ obs.Layer, name, _ string, v uint64) {
			if name == "pio_words" {
				o.busWords = v
			}
		})
	}
	if cpuFirst {
		cpu()
		bus()
	} else {
		bus()
		cpu()
	}
}

// registry reads the rest of o from a snapshot of the metrics registry,
// the schedulers and the kernel.
func (r *pollRig) registry(o *pollOutcome) {
	h := r.h
	snap := obs.MergeSnapshots(r.k.Now(), obs.Ensure(r.k).Metrics())
	o.hostBusy = snap.Value(obs.LayerSched, "busy_ns", h.Sched.Name())
	o.cabBusy = snap.Value(obs.LayerSched, "busy_ns", r.f.CAB().Sched.Name())
	o.pioWords = snap.Value(obs.LayerVME, "pio_words", h.Bus.Name())
	o.dmaBytes = snap.Value(obs.LayerVME, "dma_bytes", h.Bus.Name())
	o.hostSwitches, o.cabSwitches = h.Sched.Switches(), r.f.CAB().Sched.Switches()
	o.dispatched = r.k.Dispatched()
}

// samePolling runs scenario once with the oracle loop and once with
// WaitPoll and fails unless both end identically. It returns the
// WaitPoll outcome.
func samePolling(t *testing.T, scenario func(t *testing.T, wait waitFn) pollOutcome) pollOutcome {
	t.Helper()
	want := scenario(t, oracleWait)
	got := scenario(t, spinWait)
	if got != want {
		t.Errorf("WaitPoll outcome differs from the loop's:\n got %+v\nwant %+v", got, want)
	}
	if got.exit == 0 {
		t.Error("the poller never returned")
	}
	return got
}

func mustRunRig(t *testing.T, r *pollRig) {
	t.Helper()
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitPollSignalAtCheck: a CAB Signal whose Compute ends at the very
// instant of a poll check. Without bus contention the CAB's 2 µs SyncOp
// slice is queued before the host's 1 µs word, and the check sees the new
// value. With a block transfer holding the bus, the word waits for it and is queued
// first, so the check misses the signal and the poller spins once more.
// Both orders must match the loop.
func TestWaitPollSignalAtCheck(t *testing.T) {
	// The host process runs at 20 µs (one context switch), reads the poll
	// value (1 µs) and then checks every 4 µs (3 µs of loop, 1 µs word):
	// at 25, 29, 33 µs, ... A transfer from 26 to 34 µs holds the word begun at
	// 28 µs until 35 µs. The CAB signaler also runs at 20 µs.
	for _, tc := range []struct {
		name  string
		dmaAt sim.Time // 0: no block transfer
		check sim.Time
		seen  bool // the check at the signal's instant sees it
	}{
		{"cab-first", 0, sim.Time(33 * sim.Microsecond), true},
		{"host-first", sim.Time(26 * sim.Microsecond), sim.Time(35 * sim.Microsecond), false},
	} {
		run := func(wait waitFn, signaled *sim.Time) *pollRig {
			r := newPollRig(wait)
			if tc.dmaAt != 0 {
				r.k.At(tc.dmaAt, func() { blockTransfer(r.k, r.h.Bus, 0, func() {}) })
			}
			r.signalAfter(sim.Duration(tc.check)-20*sim.Microsecond-r.f.cost.SyncOp, signaled)
			mustRunRig(t, r)
			return r
		}
		t.Run(tc.name, func(t *testing.T) {
			var checks []sim.Time
			var signaled sim.Time
			r := run(func(hc *HostCond, ctx exec.Context, since uint32) {
				loopWaitPoll(hc, ctx, since, &checks)
			}, &signaled)
			if signaled != tc.check || !slices.Contains(checks, signaled) {
				t.Fatalf("signal landed at %v, poll checks at %v: not the same instant", signaled, checks)
			}
			if seen := r.exit == signaled; seen != tc.seen {
				t.Fatalf("poller exited at %v after a signal at %v; want the check there to see it: %v",
					r.exit, signaled, tc.seen)
			}
			samePolling(t, func(t *testing.T, wait waitFn) pollOutcome {
				return run(wait, nil).outcome()
			})
		})
	}
}

// TestWaitPollDMAHoldsBus: CAB-side block transfers of 64 bytes (24 µs each),
// each started as the previous one ends, hold the VME bus across several
// poll words: each word waits inside its compute for the burst in
// progress, and the next burst then waits for the word.
func TestWaitPollDMAHoldsBus(t *testing.T) {
	got := samePolling(t, func(t *testing.T, wait waitFn) pollOutcome {
		r := newPollRig(wait)
		bus := r.h.Bus
		bursts := 0
		var burst func()
		burst = func() {
			if bursts++; bursts <= 4 {
				blockTransfer(r.k, bus, 64, burst)
			}
		}
		r.k.At(sim.Time(26500*sim.Nanosecond), burst)
		r.signalAfter(200*sim.Microsecond, nil)
		mustRunRig(t, r)
		return r.outcome()
	})
	// Without the bursts a poll word would come every 4 µs. The bus
	// counts the bursts' words with the poller's.
	polls := int(got.pioWords) - 1 - 4*blockTransferWords(64)
	if span := sim.Duration(got.exit) - 21*sim.Microsecond; polls*4 >= int(span/sim.Microsecond) {
		t.Errorf("%d poll words in %v: the bursts never delayed one", polls, span)
	}
}

// TestWaitPollInterruptMidSlice: host interrupts preempt the poller in
// the middle of its loop compute and in the middle of its bus word.
func TestWaitPollInterruptMidSlice(t *testing.T) {
	got := samePolling(t, func(t *testing.T, wait waitFn) pollOutcome {
		r := newPollRig(wait)
		sched := r.h.Sched
		handler := func(th *threads.Thread) { th.Compute(7 * sim.Microsecond) }
		// Checks fall at 25 and 29 µs, so 30.5 is inside a loop compute.
		// The first interrupt's entry, handler, exit and the switch back
		// move them to 66 + 4n µs, so 93.5 is inside the word 93-94 µs.
		for _, at := range []sim.Duration{30500, 93500} {
			r.k.At(sim.Time(at*sim.Nanosecond), func() { sched.RaiseInterrupt("test", handler) })
		}
		r.signalAfter(150*sim.Microsecond, nil)
		mustRunRig(t, r)
		return r.outcome()
	})
	// The process's first dispatch, then one switch back per preemption.
	if got.hostSwitches != 3 {
		t.Errorf("host made %d context switches, want 3", got.hostSwitches)
	}
}

// TestWaitPollAcrossRunFor: a RunFor horizon falls mid-spin, and the
// next RunFor resumes polling where it stopped.
func TestWaitPollAcrossRunFor(t *testing.T) {
	samePolling(t, func(t *testing.T, wait waitFn) pollOutcome {
		r := newPollRig(wait)
		r.signalAfter(100*sim.Microsecond, nil)
		for _, d := range []sim.Duration{50500, 30000, 100000} {
			if err := r.k.RunFor(d * sim.Nanosecond); err != nil {
				t.Fatal(err)
			}
			if d == 50500 && r.exit != 0 {
				t.Fatalf("poller returned at %v, before the first horizon", r.exit)
			}
		}
		return r.outcome()
	})
}

// TestZeroAllocWaitPoll guards the warm WaitPoll: its state record comes
// from the IF's free list and its step and poll stream are built with the
// record, so a poll that streams, settles and returns allocates nothing,
// alone on its kernel or beside one or two other pollers, whose slice
// ends keep every wait in a spin slot.
func TestZeroAllocWaitPoll(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("pollers=%d", n), func(t *testing.T) {
			k, _, hcs := newPollers(n)
			bump := func() {
				for _, hc := range hcs {
					hc.bump()
				}
			}
			round := func() {
				k.After(10*sim.Microsecond, bump)
				if err := k.RunFor(10 * sim.Microsecond); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				round()
			}
			words := pioWords(k)
			if got := testing.AllocsPerRun(200, round); got != 0 {
				t.Errorf("a warm WaitPoll allocates %.1f allocs/round, want 0", got)
			}
			if pioWords(k) == words {
				t.Error("the pollers did not poll")
			}
		})
	}
}

// bump changes the poll value as a Signal does, without its charges: a
// poll stream on hc settles first.
func (hc *HostCond) bump() {
	if w := hc.streaming; w != nil {
		w.stream.Settle()
	}
	hc.poll++
}

// TestWaitPollStreams pins the poll stream itself: two hosts polling on
// one kernel for 10,000 unsignalled poll cycles run their steps a few
// times per WaitPoll, not once per iteration, while every iteration's
// bus word is still booked.
func TestWaitPollStreams(t *testing.T) {
	const pollers, cycles = 2, 10000
	k, fs, _ := newPollers(pollers)
	steps := 0
	for _, f := range fs {
		w, _ := f.pollers.Get()
		step := w.step
		w.stepFn = func() bool { steps++; return step() }
		f.pollers.Put(w)
	}
	if err := k.RunFor(sim.Duration(cycles) * pollIteration(fs[0].cost)); err != nil {
		t.Fatal(err)
	}
	// Each process's one WaitPoll never returns.
	if waits := pollers; steps > 2*waits {
		t.Errorf("%d step calls for %d WaitPolls: the loop did not stream", steps, waits)
	}
	if words := pioWords(k); words < pollers*(cycles-10) {
		t.Errorf("%d bus words booked for %d pollers of %d cycles", words, pollers, cycles)
	}
}
