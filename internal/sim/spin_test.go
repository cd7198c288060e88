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
