package sim

import (
	"fmt"
	"testing"
)

// nestRing is a ring of four Procs that pass one token round in turn,
// each waiting its own way: ring0 suspends, ring1 spins (its step waits
// once more, on a timer, after the token comes), ring2 is a server whose
// handler sleeps, and ring3 sleeps before it passes the token on. Each
// pass wakes the next member while the passer waits, so the members'
// waits reach each other's wake-ups, and ring0's wake-up comes while the
// members it woke still run.
type nestRing struct {
	l       *orderLog
	members [4]*Proc
	tok     [4]int
	waiting [4]bool
	phase   int // ring1's step: 1 once it holds the token and waits on its timer
	handled int // ring2's handler runs
}

// give passes the token to member i, waking it if it waits.
func (r *nestRing) give(i int) {
	r.l.add("give %d", i)
	r.tok[i]++
	if r.waiting[i] {
		r.waiting[i] = false
		r.members[i].Resume()
	}
}

// take waits in p, member i, until it holds the token.
func (r *nestRing) take(p *Proc, i int) {
	for r.tok[i] == 0 {
		r.waiting[i] = true
		p.Suspend()
	}
	r.tok[i]--
}

// Step and Handle make ring2 a Kernel.Serve server.
func (r *nestRing) Step() bool {
	if r.tok[2] > 0 {
		r.tok[2]--
		return true
	}
	r.waiting[2] = true
	return false
}

func (r *nestRing) Handle() {
	r.handled++
	r.l.add("ring2 handle %d", r.handled)
	sleep(r.members[2], 3)
	r.l.add("ring2 handled %d", r.handled)
	r.give(3)
}

// nestScenario starts a nestRing that makes four rounds from off + 1,
// and beside it a sleeper that tries Advance, hands a job to a helper
// and sleeps across it: the helper sleeps longer, so the sleeper's timer
// fires while the helper it woke still waits. send, when set, carries a
// message from ring3 to the other domain, whose arrival logs label and
// hands that domain's helper a job.
func nestScenario(k *Kernel, l *orderLog, off Time, send func(at Time, label string)) (job func()) {
	const rounds = 4
	r := &nestRing{l: l}
	r.members[0] = k.Go("ring0", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			r.take(p, 0)
			l.add("ring0 %d advance=%v", i, k.Advance(1))
			r.give(1)
		}
	})
	r.members[1] = k.Go("ring1", func(p *Proc) {
		resume := p.Resume
		step := func() bool {
			if r.phase == 1 {
				r.phase = 0
				return true
			}
			if r.tok[1] > 0 {
				r.tok[1]--
				r.phase = 1
				l.add("ring1 step: token")
				k.After(2, resume)
				return false
			}
			r.waiting[1] = true
			return false
		}
		for i := 0; i < rounds; i++ {
			p.Spin(step)
			l.add("ring1 %d", i)
			r.give(2)
		}
	})
	r.members[2] = k.Serve("ring2", r)
	r.members[3] = k.Go("ring3", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			r.take(p, 3)
			l.add("ring3 %d", i)
			if send != nil {
				send(p.Now()+5, fmt.Sprintf("ring3 %d", i))
			}
			sleep(p, 2)
			r.give(0)
		}
	})
	k.At(0, r.members[2].Resume)
	k.At(1+off, func() { r.give(0) })

	var helper *Proc
	jobs, idle := 0, false
	job = func() {
		l.add("job")
		jobs++
		if idle {
			idle = false
			helper.Resume()
		}
	}
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < 4; i++ {
			l.add("sleeper %d advance=%v", i, k.Advance(2))
			job()
			sleep(p, 4+4*Duration(i%2))
		}
		l.add("sleeper done")
	})
	helper = k.Go("helper", func(p *Proc) {
		for {
			for jobs == 0 {
				idle = true
				p.Suspend()
			}
			jobs--
			l.add("helper job")
			sleep(p, 5)
			l.add("helper slept")
		}
	})
	return job
}

// nestHorizons are the RunFor spans TestNestDispatchOrder runs in turn.
// Most end while the ring or the sleeper waits with Procs it woke.
var nestHorizons = []Duration{5, 4, 6, 9, 3, 7, 100}

// TestNestDispatchOrder pins the order of every callback and Proc body
// step of nestScenario, with the events dispatched at each horizon, on
// one kernel and on a two-domain coupling. The expected logs are those
// of the loop in which every hand-off to another Proc went through the
// kernel's goroutine.
func TestNestDispatchOrder(t *testing.T) {
	t.Run("kernel", func(t *testing.T) {
		k := NewKernel()
		l := &orderLog{k: k}
		nestScenario(k, l, 0, nil)
		for _, d := range nestHorizons {
			if err := k.RunFor(d); err != nil {
				t.Fatal(err)
			}
			l.add("horizon dispatched=%d", k.Dispatched())
		}
		if got := l.b.String(); got != nestOrderKernel {
			t.Errorf("dispatch order:\n%s\nwant:\n%s", got, nestOrderKernel)
		}
	})
	t.Run("coupling", func(t *testing.T) {
		c := NewCoupling()
		var logs [2]*orderLog
		var doms [2]*Domain
		var jobs [2]func()
		for i := range doms {
			doms[i] = c.AddDomain(NewKernel())
			doms[i].AddGateway(fixedLookahead{5})
			logs[i] = &orderLog{k: doms[i].Kernel()}
		}
		for i, d := range doms {
			peer := doms[1-i]
			pl := logs[1-i]
			jobs[i] = nestScenario(d.Kernel(), logs[i], Time(i), func(at Time, label string) {
				d.Send(peer, at, func() {
					pl.add("recv %s from %d", label, i)
					jobs[1-i]()
				})
			})
		}
		for _, d := range nestHorizons {
			if err := c.RunFor(d); err != nil {
				t.Fatal(err)
			}
			for i, l := range logs {
				l.add("horizon dispatched=%d", doms[i].Kernel().Dispatched())
			}
		}
		for i, want := range []string{nestOrderDomain0, nestOrderDomain1} {
			if got := logs[i].b.String(); got != want {
				t.Errorf("domain %d dispatch order:\n%s\nwant:\n%s", i, got, want)
			}
		}
	})
}

const nestOrderKernel = `0 sleeper 0 advance=false
0 job
0 helper job
1 give 0
2 ring0 0 advance=true
2 give 1
2 ring1 step: token
4 sleeper 1 advance=false
4 job
4 ring1 0
4 give 2
4 ring2 handle 1
5 helper slept
5 helper job
5 horizon dispatched=16
7 ring2 handled 1
7 give 3
7 ring3 0
9 give 0
9 ring0 1 advance=false
9 give 1
9 ring1 step: token
9 horizon dispatched=21
10 helper slept
11 ring1 1
11 give 2
11 ring2 handle 2
12 sleeper 2 advance=false
12 job
12 helper job
14 ring2 handled 2
14 give 3
14 ring3 1
15 horizon dispatched=29
16 sleeper 3 advance=false
16 job
16 give 0
16 ring0 2 advance=false
16 give 1
16 ring1 step: token
17 helper slept
17 helper job
18 ring1 2
18 give 2
18 ring2 handle 3
21 ring2 handled 3
21 give 3
21 ring3 2
22 helper slept
23 give 0
23 ring0 3 advance=false
23 give 1
23 ring1 step: token
24 sleeper done
24 horizon dispatched=44
25 ring1 3
25 give 2
25 ring2 handle 4
27 horizon dispatched=47
28 ring2 handled 4
28 give 3
28 ring3 3
30 give 0
34 horizon dispatched=50
134 horizon dispatched=50
`

const nestOrderDomain0 = `0 sleeper 0 advance=false
0 job
0 helper job
1 give 0
2 ring0 0 advance=true
2 give 1
2 ring1 step: token
4 sleeper 1 advance=false
4 job
4 ring1 0
4 give 2
4 ring2 handle 1
5 helper slept
5 helper job
5 horizon dispatched=16
7 ring2 handled 1
7 give 3
7 ring3 0
9 give 0
9 ring0 1 advance=false
9 give 1
9 ring1 step: token
9 horizon dispatched=21
10 helper slept
11 ring1 1
11 give 2
11 ring2 handle 2
12 sleeper 2 advance=false
12 job
12 helper job
13 recv ring3 0 from 1
13 job
14 ring2 handled 2
14 give 3
14 ring3 1
15 horizon dispatched=30
16 sleeper 3 advance=false
16 job
16 give 0
16 ring0 2 advance=false
16 give 1
16 ring1 step: token
17 helper slept
17 helper job
18 ring1 2
18 give 2
18 ring2 handle 3
21 ring2 handled 3
21 give 3
21 recv ring3 1 from 1
21 job
21 ring3 2
22 helper slept
22 helper job
23 give 0
23 ring0 3 advance=false
23 give 1
23 ring1 step: token
24 sleeper done
24 horizon dispatched=46
25 ring1 3
25 give 2
25 ring2 handle 4
27 helper slept
27 helper job
27 horizon dispatched=50
28 recv ring3 2 from 1
28 job
28 ring2 handled 4
28 give 3
28 ring3 3
30 give 0
32 helper slept
32 helper job
34 horizon dispatched=55
35 recv ring3 3 from 1
35 job
37 helper slept
37 helper job
42 helper slept
134 horizon dispatched=58
`

const nestOrderDomain1 = `0 sleeper 0 advance=false
0 job
0 helper job
2 give 0
3 ring0 0 advance=true
3 give 1
3 ring1 step: token
4 sleeper 1 advance=false
4 job
5 helper slept
5 helper job
5 ring1 0
5 give 2
5 ring2 handle 1
5 horizon dispatched=16
8 ring2 handled 1
8 give 3
8 ring3 0
9 horizon dispatched=18
10 helper slept
10 give 0
11 ring0 1 advance=true
11 give 1
11 ring1 step: token
12 sleeper 2 advance=false
12 job
12 recv ring3 0 from 0
12 job
12 helper job
13 ring1 1
13 give 2
13 ring2 handle 2
15 horizon dispatched=28
16 sleeper 3 advance=false
16 job
16 ring2 handled 2
16 give 3
16 ring3 1
17 helper slept
17 helper job
18 give 0
18 ring0 2 advance=false
18 give 1
18 ring1 step: token
19 recv ring3 1 from 0
19 job
20 ring1 2
20 give 2
20 ring2 handle 3
22 helper slept
22 helper job
23 ring2 handled 3
23 give 3
23 ring3 2
24 sleeper done
24 horizon dispatched=43
25 give 0
25 ring0 3 advance=false
25 give 1
25 ring1 step: token
26 recv ring3 2 from 0
26 job
27 helper slept
27 helper job
27 ring1 3
27 give 2
27 ring2 handle 4
27 horizon dispatched=51
30 ring2 handled 4
30 give 3
30 ring3 3
32 helper slept
32 helper job
32 give 0
33 recv ring3 3 from 0
33 job
34 horizon dispatched=56
37 helper slept
37 helper job
42 helper slept
134 horizon dispatched=58
`

// TestNestPanicSurfaces: a callback that panics while three Procs are
// nested, each switched into by the one below it, panics out of Run with
// its own value. The whole chain unwinds: each Proc stays asleep, none is
// left nested, and the kernel has no current Proc.
func TestNestPanicSurfaces(t *testing.T) {
	k := NewKernel()
	var procs [3]*Proc
	for i := range procs {
		procs[i] = k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Suspend()
			if i+1 < len(procs) {
				procs[i+1].Resume()
			}
			sleep(p, 100)
		})
	}
	k.At(1, procs[0].Resume)
	depth := 0
	k.At(5, func() {
		for _, p := range procs {
			if p.nested {
				depth++
			}
		}
		panic("boom")
	})
	var err error
	got := func() (r any) {
		defer func() { r = recover() }()
		err = k.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run panicked with %v (err %v), want boom", got, err)
	}
	if depth != len(procs) {
		t.Errorf("%d procs were nested when the callback panicked, want %d", depth, len(procs))
	}
	for _, p := range procs {
		if p.dead || p.nested || p.state != procSuspended {
			t.Errorf("after the panic %s: dead %v, nested %v, %s; want it asleep", p.name, p.dead, p.nested, p.label())
		}
	}
	if k.current != nil || k.woken != nil || k.panicked != nil || k.failure != nil {
		t.Errorf("after the panic: current %v, woken %v, panicked %v, failure %v; want none",
			k.current, k.woken, k.panicked, k.failure)
	}
}
