package mailbox

import (
	"fmt"
	"reflect"
	"testing"

	"nectar/internal/hw/cab"
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// loopServe is Serve as the straight-line loop it replaces, on a thread
// that holds a coroutine for its whole life. It is the oracle Serve must
// match event for event.
func loopServe(mb *Mailbox, name string, prio threads.Priority, handle func(exec.Context, *Msg)) *threads.Thread {
	return mb.rt.cab.Sched.Fork(name, prio, func(t *threads.Thread) {
		ctx := exec.OnCAB(t)
		for {
			handle(ctx, mb.BeginGet(ctx))
		}
	})
}

// serveFn is a server implementation under test.
type serveFn func(mb *Mailbox, name string, prio threads.Priority, handle func(exec.Context, *Msg)) *threads.Thread

func stepServe(mb *Mailbox, name string, prio threads.Priority, handle func(exec.Context, *Msg)) *threads.Thread {
	return mb.Serve(name, prio, handle)
}

// serveRig is one CAB whose mailboxes are served by servers started with
// one serveFn. Each handler logs when it takes a message and when it is
// done with it.
type serveRig struct {
	k       *sim.Kernel
	c       *cab.CAB
	rt      *Runtime
	serve   serveFn
	servers []*threads.Thread
	log     []string
}

func newServeRig(k *sim.Kernel, node int, serve serveFn) *serveRig {
	c := cab.NewSized(k, model.Default1990(), wire.NodeID(node), 0)
	return &serveRig{k: k, c: c, rt: NewRuntime(c), serve: serve}
}

// box creates a mailbox served at prio by a handler that computes work
// and then runs then, if not nil, before releasing the message.
func (r *serveRig) box(name string, prio threads.Priority, work sim.Duration, then func(ctx exec.Context, m *Msg)) *Mailbox {
	mb := r.rt.Create(name)
	r.servers = append(r.servers, r.serve(mb, name+"-server", prio, func(ctx exec.Context, m *Msg) {
		tag := m.Tag
		r.log = append(r.log, fmt.Sprintf("%s take %d at %v", name, tag, ctx.Now()))
		ctx.Compute(work)
		if then != nil {
			then(ctx, m)
		}
		mb.EndGet(ctx, m)
		r.log = append(r.log, fmt.Sprintf("%s done %d at %v", name, tag, ctx.Now()))
	}))
	return mb
}

// inject queues a 16-byte message tagged tag on mb from kernel context,
// charging nothing: a put whose signal lands at an exact instant and
// sequence position.
func inject(mb *Mailbox, tag uint32) {
	buf, addr, ok := mb.rt.cab.Heap.Alloc(16)
	if !ok {
		panic("inject: CAB heap exhausted")
	}
	m := mb.rt.getMsg()
	m.buf, m.addr, m.n, m.state, m.owner, m.Tag = buf[:16], addr, 16, stateReserved, mb, tag
	mb.reserved += 16
	mb.deliver(exec.Context{}, m)
}

func (r *serveRig) injectAt(at sim.Time, mb *Mailbox, tag uint32) {
	r.k.At(at, func() { inject(mb, tag) })
}

// serveOutcome is everything a server's timing can move.
type serveOutcome struct {
	Log        []string
	CPU        []sim.Duration
	BusyNs     uint64
	Switches   uint64
	Interrupts uint64
	Dispatched uint64
	Now        sim.Time
}

func (r *serveRig) outcome() serveOutcome {
	snap := obs.MergeSnapshots(r.k.Now(), obs.Ensure(r.k).Metrics())
	o := serveOutcome{
		Log:        append([]string(nil), r.log...),
		BusyNs:     snap.Value(obs.LayerSched, "busy_ns", r.c.Sched.Name()),
		Switches:   r.c.Sched.Switches(),
		Interrupts: snap.Value(obs.LayerSched, "interrupts", r.c.Sched.Name()),
		Dispatched: r.k.Dispatched(),
		Now:        r.k.Now(),
	}
	for _, t := range r.servers {
		o.CPU = append(o.CPU, t.CPUTime())
	}
	return o
}

func (r *serveRig) runUntil(t *testing.T, at sim.Time) serveOutcome {
	t.Helper()
	if err := r.k.RunUntil(at); err != nil {
		t.Fatal(err)
	}
	return r.outcome()
}

// sameServing runs scenario with the loop and with Serve and fails
// unless every outcome it reports is identical. It returns Serve's.
func sameServing(t *testing.T, scenario func(t *testing.T, serve serveFn) []serveOutcome) []serveOutcome {
	t.Helper()
	want := scenario(t, loopServe)
	got := scenario(t, stepServe)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Serve differs from the loop:\n got %+v\nwant %+v", got, want)
	}
	if len(got) == 0 || len(got[len(got)-1].Log) == 0 {
		t.Error("no message was served")
	}
	return got
}

// firstTake is when a server forked at 0 takes its first message: one
// context switch, then Begin_Get's compute.
func firstTake() sim.Time {
	c := model.Default1990()
	return sim.Time(c.ContextSwitch + c.MailboxBeginGet)
}

// TestServeMatchesLoopPutAtDispatch: a put at the instant the server is
// first dispatched, in both same-instant orders (before the switch
// completes, and between the switch and the server's wake-up), and one at
// the instant its first take would end, which makes Begin_Get's charge a
// slice instead of an inline advance. A backlog follows in each.
func TestServeMatchesLoopPutAtDispatch(t *testing.T) {
	dispatch := sim.Time(model.Default1990().ContextSwitch)
	for _, tc := range []struct {
		name        string
		at          sim.Time
		beforeFork  bool
		backlogFrom sim.Time
	}{
		{"at-dispatch-before-switch-done", dispatch, true, 40 * sim.Time(sim.Microsecond)},
		{"at-dispatch-after-switch-done", dispatch, false, 40 * sim.Time(sim.Microsecond)},
		{"at-first-take", firstTake(), true, firstTake()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sameServing(t, func(t *testing.T, serve serveFn) []serveOutcome {
				r := newServeRig(sim.NewKernel(), 1, serve)
				mb := r.rt.Create("box")
				if tc.beforeFork {
					r.injectAt(tc.at, mb, 1)
				}
				r.servers = append(r.servers, r.serve(mb, "server", threads.SystemPriority, func(ctx exec.Context, m *Msg) {
					r.log = append(r.log, fmt.Sprintf("take %d at %v", m.Tag, ctx.Now()))
					ctx.Compute(10 * sim.Microsecond)
					mb.EndGet(ctx, m)
				}))
				if !tc.beforeFork {
					r.injectAt(tc.at, mb, 1)
				}
				for i := uint32(2); i <= 4; i++ {
					r.injectAt(tc.backlogFrom, mb, i)
				}
				return []serveOutcome{r.runUntil(t, sim.Time(sim.Millisecond))}
			})
		})
	}
}

// TestServeMatchesLoopPutDuringSwitch: messages put while the server's
// first context switch is still in progress, and while it computes.
func TestServeMatchesLoopPutDuringSwitch(t *testing.T) {
	sameServing(t, func(t *testing.T, serve serveFn) []serveOutcome {
		r := newServeRig(sim.NewKernel(), 1, serve)
		mb := r.box("box", threads.SystemPriority, 15*sim.Microsecond, nil)
		r.injectAt(5*sim.Time(sim.Microsecond), mb, 1)
		r.injectAt(30*sim.Time(sim.Microsecond), mb, 2)
		r.injectAt(300*sim.Time(sim.Microsecond), mb, 3)
		return []serveOutcome{r.runUntil(t, sim.Time(sim.Millisecond))}
	})
}

// TestServeMatchesLoopHigherPriorityAtWake: a system thread becomes ready
// between an application-priority server's dispatch and its wake-up, so
// the server's first compute gives up the CPU before it starts, and again
// when the thread reappears while the server waits.
func TestServeMatchesLoopHigherPriorityAtWake(t *testing.T) {
	sameServing(t, func(t *testing.T, serve serveFn) []serveOutcome {
		r := newServeRig(sim.NewKernel(), 1, serve)
		mb := r.box("box", threads.AppPriority, 20*sim.Microsecond, nil)
		hi := func() {
			r.c.Sched.Fork("hi", threads.SystemPriority, func(th *threads.Thread) {
				th.Compute(7 * sim.Microsecond)
				r.log = append(r.log, fmt.Sprintf("hi done at %v", th.Now()))
			})
		}
		r.k.At(sim.Time(model.Default1990().ContextSwitch), hi)
		r.injectAt(100*sim.Time(sim.Microsecond), mb, 1)
		r.k.At(100*sim.Time(sim.Microsecond), hi)
		r.injectAt(400*sim.Time(sim.Microsecond), mb, 2)
		return []serveOutcome{r.runUntil(t, sim.Time(sim.Millisecond))}
	})
}

// TestServeMatchesLoopInterruptInHandle: interrupts preempt the handler's
// compute, and one lands while the server's take is being charged.
func TestServeMatchesLoopInterruptInHandle(t *testing.T) {
	sameServing(t, func(t *testing.T, serve serveFn) []serveOutcome {
		r := newServeRig(sim.NewKernel(), 1, serve)
		mb := r.box("box", threads.SystemPriority, 50*sim.Microsecond, nil)
		raise := func(at sim.Time) {
			r.k.At(at, func() {
				r.c.Sched.RaiseInterrupt("dev", func(h *threads.Thread) {
					h.Compute(5 * sim.Microsecond)
					r.log = append(r.log, fmt.Sprintf("intr at %v", h.Now()))
				})
			})
		}
		r.injectAt(100*sim.Time(sim.Microsecond), mb, 1)
		raise(120 * sim.Time(sim.Microsecond))
		r.injectAt(150*sim.Time(sim.Microsecond), mb, 2)
		raise(150*sim.Time(sim.Microsecond) + 1)
		return []serveOutcome{r.runUntil(t, sim.Time(sim.Millisecond))}
	})
}

// TestServeMatchesLoopServersBlockInHandle: two servers on one CAB both
// block in their handlers at once (on a Cond that a third thread signals
// later), so each holds a coroutine at the same time.
func TestServeMatchesLoopServersBlockInHandle(t *testing.T) {
	sameServing(t, func(t *testing.T, serve serveFn) []serveOutcome {
		r := newServeRig(sim.NewKernel(), 1, serve)
		gate := threads.NewCond("gate")
		open := false
		wait := func(ctx exec.Context, m *Msg) {
			for !open {
				gate.Wait(ctx.T)
			}
		}
		a := r.box("a", threads.SystemPriority, 10*sim.Microsecond, wait)
		b := r.box("b", threads.SystemPriority, 10*sim.Microsecond, wait)
		r.injectAt(100*sim.Time(sim.Microsecond), a, 1)
		r.injectAt(100*sim.Time(sim.Microsecond), b, 2)
		r.injectAt(110*sim.Time(sim.Microsecond), a, 3)
		r.k.At(400*sim.Time(sim.Microsecond), func() {
			r.c.Sched.Fork("opener", threads.SystemPriority, func(th *threads.Thread) {
				open = true
				gate.Broadcast()
			})
		})
		return []serveOutcome{r.runUntil(t, sim.Time(sim.Millisecond))}
	})
}

// TestServeMatchesLoopHorizonInHandle: runs stop at horizons inside the
// handler's compute and inside the take's charge, and resume.
func TestServeMatchesLoopHorizonInHandle(t *testing.T) {
	sameServing(t, func(t *testing.T, serve serveFn) []serveOutcome {
		r := newServeRig(sim.NewKernel(), 1, serve)
		mb := r.box("box", threads.SystemPriority, 50*sim.Microsecond, nil)
		r.injectAt(100*sim.Time(sim.Microsecond), mb, 1)
		r.injectAt(130*sim.Time(sim.Microsecond), mb, 2)
		var out []serveOutcome
		for _, at := range []sim.Time{sim.Time(sim.Microsecond), 125 * sim.Time(sim.Microsecond), 152 * sim.Time(sim.Microsecond), sim.Time(sim.Millisecond)} {
			out = append(out, r.runUntil(t, at))
		}
		return out
	})
}

// TestServeMatchesLoopSharded: two CABs on the two domains of a
// coupling, so the second runs on a worker goroutine, bounce messages
// between their servers with a fixed latency.
func TestServeMatchesLoopSharded(t *testing.T) {
	const latency = 30 * sim.Microsecond
	sameServing(t, func(t *testing.T, serve serveFn) []serveOutcome {
		c := sim.NewCoupling()
		var rigs [2]*serveRig
		var boxes [2]*Mailbox
		var doms [2]*sim.Domain
		for i := range rigs {
			k := sim.NewKernel()
			doms[i] = c.AddDomain(k)
			doms[i].AddGateway(lookahead(latency))
			rigs[i] = newServeRig(k, i+1, serve)
		}
		for i := range rigs {
			i := i
			boxes[i] = rigs[i].box(fmt.Sprintf("box%d", i), threads.SystemPriority, 12*sim.Microsecond, func(ctx exec.Context, m *Msg) {
				if tag := m.Tag; tag < 12 {
					dst := boxes[1-i]
					doms[i].SendSized(doms[1-i], ctx.Now()+sim.Time(latency), 0, func() { inject(dst, tag+1) })
				}
			})
		}
		rigs[0].injectAt(50*sim.Time(sim.Microsecond), boxes[0], 0)
		rigs[1].injectAt(50*sim.Time(sim.Microsecond), boxes[1], 1)
		if err := c.RunFor(sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		return []serveOutcome{rigs[0].outcome(), rigs[1].outcome()}
	})
}

// lookahead is a gateway whose outputs are at least d after the
// domain's activity floor.
type lookahead sim.Duration

func (l lookahead) EarliestOutputTo(dst int, floor sim.Time) sim.Time {
	if floor >= sim.MaxTime {
		return sim.MaxTime
	}
	return floor + sim.Time(l)
}

// TestZeroAllocServe guards a warm Serve cycle: the idle step, binding a
// pooled coroutine, the handler, and the release when the next step
// waits. It allocates nothing.
func TestZeroAllocServe(t *testing.T) {
	k := sim.NewKernel()
	c := cab.NewSized(k, model.Default1990(), 1, 0)
	rt := NewRuntime(c)
	mb := rt.Create("box")
	served := 0
	mb.Serve("server", threads.SystemPriority, func(ctx exec.Context, m *Msg) {
		ctx.Compute(5 * sim.Microsecond)
		served++
		mb.EndGet(ctx, m)
	})
	put := func() { inject(mb, 0) }
	round := func() {
		k.After(sim.Microsecond, put)
		if err := k.RunFor(100 * sim.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	before := k.Resumes()
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("a warm Serve cycle allocates %.1f allocs/round, want 0", got)
	}
	if served < 200 || k.Resumes() == before {
		t.Errorf("served %d messages with %d resumes; want every round served on a coroutine", served, k.Resumes()-before)
	}
}
