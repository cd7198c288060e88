package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestDrivePanicSurfaces: a callback that panics while a Proc sleeps
// across it panics out of Run with its own value, as it would from the
// kernel's loop, and the sleeping Proc stays asleep rather than failed.
// A Fatalf in such a callback ends the run at once with its error.
func TestDrivePanicSurfaces(t *testing.T) {
	t.Run("panic", func(t *testing.T) {
		k := NewKernel()
		woke := false
		a := k.Go("a", func(p *Proc) {
			sleep(p, 10)
			woke = true
		})
		k.At(5, func() { panic("boom") })
		var err error
		got := func() (r any) {
			defer func() { r = recover() }()
			err = k.Run()
			return nil
		}()
		if got != "boom" {
			t.Fatalf("Run panicked with %v (err %v), want boom", got, err)
		}
		if a.dead || a.state != procSuspended || woke || k.failure != nil {
			t.Errorf("after the panic: a dead %v, %s, woke %v, failure %v; want a asleep and no failure",
				a.dead, a.label(), woke, k.failure)
		}
		if k.current != nil {
			t.Error("the kernel is left with a current proc")
		}
	})
	t.Run("fatalf", func(t *testing.T) {
		k := NewKernel()
		woke, late := false, false
		a := k.Go("a", func(p *Proc) {
			sleep(p, 10)
			woke = true
		})
		k.At(5, func() { k.Fatalf("stop at %v", k.Now()) })
		k.At(5, func() { late = true })
		k.At(7, func() { late = true })
		err := k.Run()
		if err == nil || err.Error() != "stop at 0.005us" {
			t.Fatalf("Run = %v, want the Fatalf error", err)
		}
		if woke || late || a.dead || a.state != procSuspended {
			t.Errorf("after Fatalf: woke %v, later event ran %v, a %s; want nothing more to run", woke, late, a.label())
		}
		// The start and the failing callback.
		if d := k.Dispatched(); d != 2 {
			t.Errorf("dispatched %d events, want 2", d)
		}
	})
}

// orderLog records (Now, label) lines from one kernel's callbacks and
// Proc bodies.
type orderLog struct {
	k *Kernel
	b strings.Builder
}

func (l *orderLog) add(format string, args ...any) {
	fmt.Fprintf(&l.b, "%d %s\n", l.k.Now(), fmt.Sprintf(format, args...))
}

// orderServer is a Kernel.Serve server whose handler blocks, so it waits
// both ways: for work in its step and in Sleep inside Handle.
type orderServer struct {
	l       *orderLog
	p       *Proc
	items   int
	waiting bool
	handled int
}

func (s *orderServer) Step() bool {
	s.l.add("srv step items=%d", s.items)
	if s.items > 0 {
		s.items--
		return true
	}
	s.waiting = true
	return false
}

func (s *orderServer) Handle() {
	s.handled++
	s.l.add("srv handle %d", s.handled)
	sleep(s.p, 5)
	s.l.add("srv handled %d", s.handled)
}

func (s *orderServer) put() {
	s.l.add("put")
	s.items++
	if s.waiting {
		s.waiting = false
		s.p.Resume()
	}
}

// driveScenario starts every kind of wait on k: callbacks at equal
// instants, a sleeping Go Proc that tries Advance, a spinning Proc, a
// server, a suspended Proc resumed by a callback and a ping-pong chain of
// Procs that wake each other. off shifts the callbacks, so two domains
// of a coupling differ; send, when set, carries a message to the other
// domain, which logs label when it arrives.
func driveScenario(k *Kernel, l *orderLog, off Time, send func(at Time, label string)) {
	k.At(off, func() { l.add("cb0") })
	k.At(10+off, func() { l.add("cb10a") })
	k.At(10+off, func() { l.add("cb10b") })
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < 6; i++ {
			l.add("sleeper %d advance=%v", i, k.Advance(1))
			if send != nil {
				send(p.Now()+5, fmt.Sprintf("recv %d", i))
			}
			sleep(p, 6)
		}
		l.add("sleeper done")
	})
	k.Go("spinner", func(p *Proc) {
		calls := 0
		p.Spin(func() bool {
			calls++
			l.add("spin step %d", calls)
			if calls > 3 {
				return true
			}
			k.After(4, p.Resume)
			return false
		})
		l.add("spinner done")
		sleep(p, 3)
		l.add("spinner end")
	})
	s := &orderServer{l: l}
	s.p = k.Serve("srv", s)
	k.At(0, s.p.Resume)
	k.At(3+off, s.put)
	k.At(3+off, s.put)
	k.At(17+off, s.put)
	parker := k.Go("parker", func(p *Proc) {
		p.Suspend()
		l.add("parker resumed")
		sleep(p, 2)
		l.add("parker slept")
		p.Suspend()
		l.add("parker resumed again")
	})
	k.At(20+off, func() { l.add("cb resume parker"); parker.Resume() })
	k.At(26+off, func() { l.add("cb resume parker"); parker.Resume() })
	var ping, pong *Proc
	ping = k.Go("ping", func(p *Proc) {
		for i := 0; i < 3; i++ {
			sleep(p, 1)
			l.add("ping %d", i)
			pong.Resume()
			p.Suspend()
		}
	})
	pong = k.Go("pong", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Suspend()
			l.add("pong %d", i)
			sleep(p, 2)
			ping.Resume()
		}
	})
}

// driveHorizons are the RunFor spans the oracle runs in turn: the first
// two end while the sleeper, the spinner and the server wait.
var driveHorizons = []Duration{14, 13, 100}

// TestDriveDispatchOrder pins the order of every callback and Proc body
// step of driveScenario, on one kernel and on a two-domain coupling,
// across RunFor horizons that fall in the middle of waits. The expected
// logs are those of the kernel loop that switched into a Proc for every
// wake-up.
func TestDriveDispatchOrder(t *testing.T) {
	t.Run("kernel", func(t *testing.T) {
		k := NewKernel()
		l := &orderLog{k: k}
		driveScenario(k, l, 0, nil)
		for _, d := range driveHorizons {
			if err := k.RunFor(d); err != nil {
				t.Fatal(err)
			}
			l.add("horizon")
		}
		if got := l.b.String(); got != driveOrderKernel {
			t.Errorf("dispatch order:\n%s\nwant:\n%s", got, driveOrderKernel)
		}
	})
	t.Run("coupling", func(t *testing.T) {
		c := NewCoupling()
		var logs [2]*orderLog
		var doms [2]*Domain
		for i := range doms {
			doms[i] = c.AddDomain(NewKernel())
			doms[i].AddGateway(fixedLookahead{5})
			logs[i] = &orderLog{k: doms[i].Kernel()}
		}
		for i, d := range doms {
			peer := doms[1-i]
			pl := logs[1-i]
			driveScenario(d.Kernel(), logs[i], Time(i), func(at Time, label string) {
				d.Send(peer, at, func() { pl.add("%s from %d", label, i) })
			})
		}
		for _, d := range driveHorizons {
			if err := c.RunFor(d); err != nil {
				t.Fatal(err)
			}
			for _, l := range logs {
				l.add("horizon")
			}
		}
		for i, want := range []string{driveOrderDomain0, driveOrderDomain1} {
			if got := logs[i].b.String(); got != want {
				t.Errorf("domain %d dispatch order:\n%s\nwant:\n%s", i, got, want)
			}
		}
	})
}

const driveOrderKernel = `0 cb0
0 sleeper 0 advance=false
0 spin step 1
0 srv step items=0
1 ping 0
1 pong 0
3 put
3 put
3 srv step items=2
3 srv handle 1
4 ping 1
4 spin step 2
4 pong 1
6 sleeper 1 advance=false
7 ping 2
7 pong 2
8 srv handled 1
8 srv step items=1
8 srv handle 2
8 spin step 3
10 cb10a
10 cb10b
12 sleeper 2 advance=false
12 spin step 4
12 spinner done
13 srv handled 2
13 srv step items=0
14 horizon
15 spinner end
17 put
17 srv step items=1
17 srv handle 3
19 sleeper 3 advance=true
20 cb resume parker
20 parker resumed
22 srv handled 3
22 srv step items=0
22 parker slept
25 sleeper 4 advance=false
26 cb resume parker
26 parker resumed again
27 horizon
32 sleeper 5 advance=true
38 sleeper done
127 horizon
`

const driveOrderDomain0 = `0 cb0
0 sleeper 0 advance=false
0 spin step 1
0 srv step items=0
1 ping 0
1 pong 0
3 put
3 put
3 srv step items=2
3 srv handle 1
4 ping 1
4 spin step 2
4 pong 1
5 recv 0 from 1
6 sleeper 1 advance=false
7 ping 2
7 pong 2
8 srv handled 1
8 srv step items=1
8 srv handle 2
8 spin step 3
10 cb10a
10 cb10b
11 recv 1 from 1
12 sleeper 2 advance=false
12 spin step 4
12 spinner done
13 srv handled 2
13 srv step items=0
14 horizon
15 spinner end
17 put
17 recv 2 from 1
17 srv step items=1
17 srv handle 3
19 sleeper 3 advance=true
20 cb resume parker
20 parker resumed
22 srv handled 3
22 srv step items=0
22 parker slept
23 recv 3 from 1
25 sleeper 4 advance=false
26 cb resume parker
26 parker resumed again
27 horizon
29 recv 4 from 1
32 sleeper 5 advance=true
35 recv 5 from 1
38 sleeper done
127 horizon
`

const driveOrderDomain1 = `0 sleeper 0 advance=false
0 spin step 1
0 srv step items=0
1 cb0
1 ping 0
1 pong 0
4 put
4 put
4 ping 1
4 srv step items=2
4 srv handle 1
4 spin step 2
4 pong 1
5 recv 0 from 0
6 sleeper 1 advance=false
7 ping 2
7 pong 2
8 spin step 3
9 srv handled 1
9 srv step items=1
9 srv handle 2
11 cb10a
11 cb10b
11 recv 1 from 0
12 sleeper 2 advance=false
12 spin step 4
12 spinner done
14 srv handled 2
14 srv step items=0
14 horizon
15 spinner end
17 recv 2 from 0
18 put
18 sleeper 3 advance=false
18 srv step items=1
18 srv handle 3
21 cb resume parker
21 parker resumed
23 srv handled 3
23 srv step items=0
23 parker slept
24 sleeper 4 advance=false
24 recv 3 from 0
27 cb resume parker
27 parker resumed again
27 horizon
30 sleeper 5 advance=false
30 recv 4 from 0
36 sleeper done
37 recv 5 from 0
127 horizon
`

// TestResumeInPlace: a callback that ends by waking a Proc in place runs
// the wake-up inside it when nothing else is queued at that instant, and
// schedules it as Resume does when something is. Either way the order,
// Dispatched and the sequence numbers are Resume's.
func TestResumeInPlace(t *testing.T) {
	run := func(inPlace bool) (string, uint64, uint64) {
		k := NewKernel()
		l := &orderLog{k: k}
		var p *Proc
		wake := func(label string) {
			if inPlace {
				p.ResumeInPlace()
			} else {
				p.Resume()
			}
			l.add("%s woke p, %d queued", label, k.PendingEvents())
		}
		p = k.Go("p", func(p *Proc) {
			for i := 0; i < 2; i++ {
				p.Suspend()
				l.add("p woke")
			}
		})
		k.At(5, func() { wake("alone") })
		k.At(10, func() { wake("first") })
		k.At(10, func() { l.add("second") })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return l.b.String(), k.Dispatched(), k.seq
	}
	got, gotD, gotSeq := run(true)
	want, wantD, wantSeq := run(false)
	if gotD != wantD || gotSeq != wantSeq {
		t.Errorf("in place: %d events dispatched, seq %d; Resume: %d, %d", gotD, gotSeq, wantD, wantSeq)
	}
	// Only the wake-up at 5, with nothing else queued then, leaves no
	// event behind. p, which drives the loop while it waits, returns into
	// its body once the callback is done, as it does after its wake event.
	const inPlace = `5 alone woke p, 2 queued
5 p woke
10 first woke p, 2 queued
10 second
10 p woke
`
	const scheduled = `5 alone woke p, 3 queued
5 p woke
10 first woke p, 2 queued
10 second
10 p woke
`
	if got != inPlace || want != scheduled {
		t.Errorf("in place:\n%s\nwant:\n%s\nResume:\n%s\nwant:\n%s", got, inPlace, want, scheduled)
	}
}
