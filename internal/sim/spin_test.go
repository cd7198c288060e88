package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestSpinDoneAtOnce: a step that finishes on its first call runs inside
// the Proc and never yields, so nothing is dispatched after the start
// and the coroutine is entered once.
func TestSpinDoneAtOnce(t *testing.T) {
	k := NewKernel()
	calls := 0
	var inProc bool
	k.Go("p", func(p *Proc) {
		p.Spin(func() bool {
			calls++
			inProc = k.current == p
			return true
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !inProc {
		t.Errorf("step called %d times, in the Proc %v; want once, true", calls, inProc)
	}
	if d, r := k.Dispatched(), k.Resumes(); d != 1 || r != 1 {
		t.Errorf("dispatched %d events and %d resumes, want 1 and 1 (the start)", d, r)
	}
}

// stepper is a Spin step that waits wakes times for an event 10 ns out
// and then finishes. Every call after the first must run from the
// Proc's wake event with the Proc current; it advances the clock 5 ns in
// place there to show that Advance holds as in the body.
type stepper struct {
	t     *testing.T
	p     *Proc
	wakes int
	calls int
}

func (s *stepper) step() bool {
	k := s.p.k
	if s.calls > 0 {
		if k.current != s.p {
			s.t.Errorf("step call %d: current proc is not the spinning one", s.calls)
		}
		if before := k.Now(); !k.Advance(5) || k.Now() != before+5 {
			s.t.Errorf("step call %d: Advance(5) did not move the clock", s.calls)
		}
	}
	s.calls++
	if s.calls > s.wakes {
		return true
	}
	k.After(10, s.p.Resume)
	return false
}

// TestSpinStepRunsInWakeEvent: a waiting step is called again from the
// wake event, and no iteration switches into the coroutine: the Proc
// dispatches its own timer and wake events while it spins, so once done
// it returns into its body without a switch.
func TestSpinStepRunsInWakeEvent(t *testing.T) {
	k := NewKernel()
	var s *stepper
	var end Time
	k.Go("p", func(p *Proc) {
		s = &stepper{t: t, p: p, wakes: 3}
		p.Spin(s.step)
		end = p.k.now
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s.calls != 4 {
		t.Errorf("step called %d times, want 4", s.calls)
	}
	// Three waits of 10 ns, each followed by 5 ns in place.
	if end != 45 {
		t.Errorf("spin ended at %v ns, want 45", end.Nanos())
	}
	// The start, then three timer events each with its wake event.
	if d := k.Dispatched(); d != 7 {
		t.Errorf("dispatched %d events, want 7", d)
	}
	if r := k.Resumes(); r != 1 {
		t.Errorf("resumed the coroutine %d times, want 1 (the start)", r)
	}
}

// labelled describes a suspended Proc for deadlock reports.
type labelled string

func (l labelled) Describe() string { return string(l) }

// TestSpinDeadlockLabel: a Proc whose step waits for a wake that never
// comes is reported as a deadlock exactly as a suspended Proc is, both
// after the first call and after a call from the wake event, with and
// without a Describer.
func TestSpinDeadlockLabel(t *testing.T) {
	k := NewKernel()
	never := func() bool { return false }
	k.Go("suspended", func(p *Proc) { p.Suspend() })
	k.Go("spinning", func(p *Proc) { p.Spin(never) })
	k.Go("rewoken", func(p *Proc) {
		woken := false
		resume := p.Resume
		p.Spin(func() bool {
			if !woken {
				woken = true
				k.After(10, resume)
			}
			return false
		})
	})
	k.Go("described", func(p *Proc) {
		p.SetDescriber(labelled("runnable:d"))
		p.Suspend()
	})
	k.Go("described-spin", func(p *Proc) {
		p.SetDescriber(labelled("runnable:ds"))
		p.Spin(never)
	})
	err := k.Run()
	if err == nil {
		t.Fatal("no deadlock reported")
	}
	for _, want := range []string{
		"suspended@suspended", "spinning@suspended", "rewoken@suspended",
		"described@runnable:d", "described-spin@runnable:ds",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock report %q lacks %q", err, want)
		}
	}
}

// TestSpinStepPanic: a step that panics when called from the wake event
// fails the run with the same report as a panic in the body.
func TestSpinStepPanic(t *testing.T) {
	k := NewKernel()
	k.Go("bomb", func(p *Proc) {
		first := true
		p.Spin(func() bool {
			if !first {
				panic("boom")
			}
			first = false
			k.After(Microsecond, p.Resume)
			return false
		})
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), `sim: proc "bomb" panicked: boom`) {
		t.Fatalf("err = %v, want the step's panic as a proc panic", err)
	}
}

// TestSpinStepMustNotBlock: a step called from the wake event runs in
// kernel context, so blocking there fails the run.
func TestSpinStepMustNotBlock(t *testing.T) {
	k := NewKernel()
	k.Go("blocker", func(p *Proc) {
		first := true
		p.Spin(func() bool {
			if !first {
				sleep(p, Microsecond)
			}
			first = false
			k.After(Microsecond, p.Resume)
			return false
		})
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), `blocking call on proc "blocker" from outside its coroutine`) {
		t.Fatalf("err = %v, want a blocking-call panic", err)
	}
}

// slotSpinner is a Spin step that waits waits[i] before its i-th call
// after the first, arming the wait with SpinAfter or, as the oracle,
// with After and a callback that ends in ResumeInPlace. Each call after
// the first also tries to advance 2 ns in place, which the other
// spinner's queued wait may prevent. Every end, step call and advance
// is logged with the clock and the kernel's sequence counter.
type slotSpinner struct {
	p     *Proc
	name  string
	slot  bool
	waits []Duration
	calls int
	log   *[]string
	end   func()
	fn    func()
	timer Timer
}

func (s *slotSpinner) step() bool {
	k := s.p.k
	*s.log = append(*s.log, fmt.Sprintf("%v %s step %d seq=%d", k.Now(), s.name, s.calls, k.seq))
	if s.calls > 0 && k.Advance(2) {
		*s.log = append(*s.log, fmt.Sprintf("%v %s advanced", k.Now(), s.name))
	}
	if s.calls >= len(s.waits) {
		return true
	}
	d := s.waits[s.calls]
	s.calls++
	if s.slot {
		s.timer = s.p.SpinAfter(d, s.end, s.fn)
	} else {
		s.timer = k.After(d, s.fn)
	}
	return false
}

// TestSpinAfterMatchesAfter: waits armed in spin slots run exactly as
// the same waits armed as heap callbacks that end in ResumeInPlace: two
// spinners whose waits end at the same instants as each other and as
// plain callbacks, with a wait stopped and re-armed, and a RunFor
// horizon between, log the same steps at the same instants and sequence
// numbers, and the kernels agree on Dispatched, PendingEvents,
// NextEventAt and Idle at every horizon.
func TestSpinAfterMatchesAfter(t *testing.T) {
	run := func(slot bool) []string {
		k := NewKernel()
		var log []string
		for i, waits := range [][]Duration{{10, 10, 5, 5, 20}, {10, 10, 10, 20, 5}} {
			s := &slotSpinner{name: fmt.Sprintf("s%d", i), slot: slot, waits: waits, log: &log}
			s.end = func() { log = append(log, fmt.Sprintf("%v %s end", k.Now(), s.name)) }
			s.fn = func() { s.end(); s.p.ResumeInPlace() }
			k.Go(s.name, func(p *Proc) {
				s.p = p
				p.Spin(s.step)
				log = append(log, fmt.Sprintf("%v %s done", k.Now(), s.name))
			})
			if i == 0 {
				// Stop s0's wait that ends at 25 and arm it again to end
				// at 27 instead.
				k.At(22, func() {
					if !s.timer.Pending() || s.timer.When() != 25 || !s.timer.Stop() || s.timer.Pending() {
						t.Errorf("s0's wait at 22: not a pending wait until 25 that Stop cancels")
					}
					s.p.Resume()
					s.calls--
					s.waits[s.calls] = 5
				})
			}
		}
		for _, at := range []Time{10, 20, 30, 35} {
			k.At(at, func() { log = append(log, fmt.Sprintf("%v callback", k.Now())) })
		}
		// The third horizon, at 37, leaves only spin slots queued.
		for _, d := range []Duration{15, 12, 10, 100} {
			if err := k.RunFor(d); err != nil {
				t.Fatal(err)
			}
			next, ok := k.NextEventAt()
			log = append(log, fmt.Sprintf("horizon %v dispatched=%d pending=%d next=%v,%v idle=%v",
				k.Now(), k.Dispatched(), k.PendingEvents(), next, ok, k.PendingEvents() == 0))
		}
		return log
	}
	want, got := run(false), run(true)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("spin slots:\n%s\nheap callbacks:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// computeLoop is a Spin step over a loop of two computes, a then b, each
// advanced in place when it can be and otherwise a slice in the Proc's
// spin slot whose end charges it, as threads.Thread.StartCompute does
// for a thread that nothing preempts. With stream set it becomes a poll
// stream whenever it is about to compute a, and Settled restores it.
type computeLoop struct {
	p       *Proc
	name    string
	a, b    Duration
	stream  bool
	next    int      // the compute the step starts next: 0 for a, 1 for b
	started int      // computes started
	done    Duration // compute time charged
	start   Time     // the last slice's start
	slice   Duration // the pending slice's length, 0 when none is
	timer   Timer
	s       Stream
	end, fn func()
}

func newComputeLoop(k *Kernel, name string, a, b Duration, stream bool) *computeLoop {
	l := &computeLoop{name: name, a: a, b: b, stream: stream}
	l.s.Init(l)
	l.end = func() { l.done += l.slice; l.slice, l.timer = 0, Timer{} }
	l.fn = func() { l.end(); l.p.ResumeInPlace() }
	k.Go(name, func(p *Proc) {
		l.p = p
		p.Spin(l.step)
	})
	return l
}

func (l *computeLoop) step() bool {
	k := l.p.k
	for {
		if l.next == 0 && l.stream && l.p.Stream(&l.s, l.a, l.b, l.end) {
			// As threads does, the slice Timer is the stream's while it
			// runs, so that reading it settles the stream.
			l.timer = l.s.Timer()
			return false
		}
		d := l.a
		if l.next == 1 {
			d = l.b
		}
		l.next ^= 1
		l.started++
		if k.Advance(d) {
			l.done += d
			continue
		}
		l.start, l.slice = k.Now(), d
		l.timer = l.p.SpinAfter(d, l.end, l.fn)
		return false
	}
}

// Settled restores the loop from its stream (StreamOwner).
func (l *computeLoop) Settled(s *Stream) {
	l.done += s.Done()
	l.started += int(s.Started(0) + s.Started(1))
	i, start, pending := s.Last()
	l.next, l.start, l.slice, l.timer = 1-i, start, 0, Timer{}
	if pending {
		l.slice, l.timer = s.Compute(i), s.Timer()
	}
}

// observe logs what can be seen of the kernel and of each loop, settling
// any stream first, as every reader of a loop's state must.
func observe(k *Kernel, loops []*computeLoop, log *[]string) {
	next, ok := k.NextEventAt()
	*log = append(*log, fmt.Sprintf("%v seq=%d dispatched=%d pending=%d next=%v,%v",
		k.Now(), k.seq, k.Dispatched(), k.PendingEvents(), next, ok))
	for _, l := range loops {
		l.p.Settle()
		*log = append(*log, fmt.Sprintf("  %s next=%d started=%d done=%v start=%v slice=%v timer=%v,%v",
			l.name, l.next, l.started, l.done, l.start, l.slice, l.timer.Pending(), l.timer.When()))
	}
}

// TestSpinStreamMatchesLoop: loops of two computes that become poll
// streams run exactly as the same loops that dispatch every slice end
// and wake-up: alone on the kernel (whole cycles in one jump), two and
// three of them whose instants coincide or interleave, beside callbacks
// at slice ends and mid-compute, across RunFor horizons, and with a
// slice stopped and the loop resumed, as a preemption does. Every
// observation settles the streams, and the logs must be identical.
func TestSpinStreamMatchesLoop(t *testing.T) {
	type spec struct {
		delay Duration
		a, b  Duration
	}
	for _, tc := range []struct {
		name      string
		loops     []spec
		callbacks []Time // callbacks that observe
		stops     []Time // callbacks that stop loop 0's pending slice and resume it
		// late stops are scheduled 1 ns before they run, after any slice
		// end due then: one that ends loop 0's slice leaves it in a
		// zero-time window, its wake-up queued and its Timer not pending.
		lateStops []Time
		horizons  []Duration
	}{
		{"solo", []spec{{0, 3000, 1000}}, []Time{40_000, 40_500}, nil, []Time{60_000}, []Duration{100_000, 4_000_000}},
		{"solo-horizons", []spec{{0, 3000, 1000}}, nil, nil, nil, []Duration{10_500, 3000, 1000, 64_000}},
		{"pair-lockstep", []spec{{0, 3000, 1000}, {0, 3000, 1000}}, []Time{21_000, 33_500}, nil, []Time{36_000}, []Duration{50_000, 7_000}},
		{"pair-offset", []spec{{0, 3000, 1000}, {1500, 3000, 1000}}, []Time{10_000, 10_500, 18_000}, []Time{12_700}, []Time{20_000, 27_000}, []Duration{30_000}},
		{"pair-unequal", []spec{{0, 3000, 1000}, {500, 2000, 1500}}, []Time{7_000}, []Time{25_250}, []Time{11_000}, []Duration{9_999, 40_000}},
		{"three-coincide", []spec{{0, 3000, 1000}, {0, 3000, 1000}, {0, 3000, 1000}}, []Time{16_000}, []Time{17_500}, []Time{20_000, 23_000}, []Duration{30_000, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(stream bool) []string {
				k := NewKernel()
				var log []string
				var loops []*computeLoop
				for i, sp := range tc.loops {
					k.At(Time(sp.delay), func() {
						loops = append(loops, newComputeLoop(k, fmt.Sprintf("l%d", i), sp.a, sp.b, stream))
					})
				}
				for _, at := range tc.callbacks {
					k.At(at, func() { observe(k, loops, &log) })
				}
				stop := func() {
					l := loops[0]
					pending := l.timer.Pending()
					log = append(log, fmt.Sprintf("%v %s pending=%v", k.Now(), l.name, pending))
					if pending && l.timer.Stop() {
						l.slice, l.timer = 0, Timer{}
						l.p.Resume()
					}
				}
				for _, at := range tc.stops {
					k.At(at, stop)
				}
				for _, at := range tc.lateStops {
					k.At(at-1, func() { k.At(at, stop) })
				}
				for _, d := range tc.horizons {
					if err := k.RunFor(d); err != nil {
						t.Fatal(err)
					}
					observe(k, loops, &log)
				}
				return log
			}
			want, got := run(false), run(true)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("streams:\n%s\nloops:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}
