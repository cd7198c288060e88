package hostif

import (
	"fmt"
	"reflect"
	"testing"

	"nectar/internal/hw/cab"
	"nectar/internal/hw/host"
	"nectar/internal/hw/vme"
	"nectar/internal/model"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// A poll world is 1–3 host/CAB pairs whose host processes poll their own
// host conditions, on one kernel or split across the two domains of a
// coupling, each pair with a script of CAB signals, DMA bursts on its
// host's bus and host interrupts. Running the same world once with
// loopWaitPoll and once with WaitPoll must end identically, at every
// horizon and in every counter: every event, and so every key, is the
// loop's.

// dmaBurst is a chain of count block transfers on a host's bus, the
// first started at at, each later one as the previous one ends.
type dmaBurst struct {
	at    sim.Time
	bytes int
	count int
}

// hostIntr raises a host interrupt at at whose handler computes handler.
type hostIntr struct {
	at      sim.Time
	handler sim.Duration
}

// pollHost is one pair's script.
type pollHost struct {
	delay   sim.Duration   // the host process computes this before its first Poll
	waits   int            // WaitPolls in a row, each since a fresh Poll
	signals []sim.Duration // the CAB signaler computes each, then signals
	relay   int            // 1 + the pair whose condition each signal also signals through a message; 0: none
	dma     []dmaBurst
	intrs   []hostIntr
}

// pollWorld is the whole scenario. horizons are the RunFor steps; a
// world must leave no poller spinning past the last one's end only if
// its outcome is to be complete, since a spinning poller never drains.
type pollWorld struct {
	hosts    []pollHost
	coupled  bool // pair i runs on domain i%2 of a 2-domain coupling
	horizons []sim.Duration
}

// worldLookahead is the coupling's gateway delay, and the delay of a
// relayed signal's message.
const worldLookahead = 3 * sim.Microsecond

type fixedLookahead sim.Duration

func (g fixedLookahead) EarliestOutputTo(dst int, actFloor sim.Time) sim.Time {
	if actFloor >= sim.MaxTime {
		return sim.MaxTime
	}
	return actFloor + sim.Time(g)
}

// kernelState is what a kernel shows from outside at a horizon.
type kernelState struct {
	now        sim.Time
	dispatched uint64
	pending    int
	next       sim.Time
	queued     bool
}

func stateOf(k *sim.Kernel) kernelState {
	s := kernelState{now: k.Now(), dispatched: k.Dispatched(), pending: k.PendingEvents()}
	s.next, s.queued = k.NextEventAt()
	return s
}

// worldOutcome is everything a world's run can move.
type worldOutcome struct {
	polls    []pollOutcome   // per pair; exit is the last wait's return
	exits    [][]sim.Time    // per pair, when each wait returned
	signaled [][]sim.Time    // per pair, when each of its CAB signals landed
	horizons [][]kernelState // per horizon, per kernel
	err      string
}

// worldPair is one pair of a running world.
type worldPair struct {
	k        *sim.Kernel
	dom      *sim.Domain
	f        *IF
	h        *host.Host
	hc       *HostCond
	waiter   *threads.Thread
	exits    []sim.Time
	signaled []sim.Time
}

// run builds w with wait as every host's WaitPoll and runs it through
// its horizons.
func (w pollWorld) run(wait waitFn) worldOutcome {
	cost := model.Default1990()
	ks := []*sim.Kernel{sim.NewKernel()}
	var c *sim.Coupling
	var doms []*sim.Domain
	if w.coupled {
		ks = append(ks, sim.NewKernel())
		c = sim.NewCoupling()
		for _, k := range ks {
			d := c.AddDomain(k)
			d.AddGateway(fixedLookahead(worldLookahead))
			doms = append(doms, d)
		}
	}
	pairs := make([]*worldPair, len(w.hosts))
	for i := range w.hosts {
		p := &worldPair{k: ks[i%len(ks)]}
		if doms != nil {
			p.dom = doms[i%len(doms)]
		}
		cb := cab.NewSized(p.k, cost, wire.NodeID(i+1), 0)
		h := host.New(p.k, cost, fmt.Sprintf("host%d", i+1), cb)
		p.f, p.h = New(h, cb), h
		p.hc = p.f.NewHostCond("c")
		pairs[i] = p
	}
	for i, spec := range w.hosts {
		p := pairs[i]
		h := p.h
		p.waiter = h.Run("poller", func(th *threads.Thread) {
			ctx := exec.OnHost(th, h)
			th.Compute(spec.delay)
			for range spec.waits {
				wait(p.hc, ctx, p.hc.Poll(ctx))
				p.exits = append(p.exits, th.Now())
			}
		})
		var to *worldPair
		if spec.relay > 0 && spec.relay <= len(pairs) {
			to = pairs[spec.relay-1]
		}
		p.f.CAB().Sched.Fork("signaler", threads.SystemPriority, func(th *threads.Thread) {
			for _, d := range spec.signals {
				th.Compute(d)
				p.hc.Signal(exec.OnCAB(th))
				p.signaled = append(p.signaled, th.Now())
				if to != nil {
					p.send(to, th.Now()+sim.Time(worldLookahead))
				}
			}
		})
		for _, b := range spec.dma {
			bus, left := h.Bus, b.count
			var burst func()
			burst = func() {
				if left--; left >= 0 {
					blockTransfer(p.k, bus, b.bytes, burst)
				}
			}
			p.k.At(b.at, burst)
		}
		for _, in := range spec.intrs {
			handler := func(th *threads.Thread) { th.Compute(in.handler) }
			p.k.At(in.at, func() { h.Sched.RaiseInterrupt("test", handler) })
		}
	}
	var o worldOutcome
	for _, d := range w.horizons {
		var err error
		if c != nil {
			err = c.RunFor(d)
		} else {
			err = ks[0].RunFor(d)
		}
		states := make([]kernelState, len(ks))
		for i, k := range ks {
			states[i] = stateOf(k)
		}
		o.horizons = append(o.horizons, states)
		if err != nil {
			o.err = err.Error()
			break
		}
	}
	for _, p := range pairs {
		r := &pollRig{k: p.k, f: p.f, h: p.h, hc: p.hc, waiter: p.waiter}
		if n := len(p.exits); n > 0 {
			r.exit = p.exits[n-1]
		}
		o.polls = append(o.polls, r.outcome())
		o.exits = append(o.exits, p.exits)
		o.signaled = append(o.signaled, p.signaled)
	}
	return o
}

// send has a CAB thread of to signal to's condition at at, through a
// message from p's domain when the two are coupled.
func (p *worldPair) send(to *worldPair, at sim.Time) {
	signal := func() {
		to.f.CAB().Sched.Fork("relay", threads.SystemPriority, func(th *threads.Thread) {
			to.hc.Signal(exec.OnCAB(th))
			to.signaled = append(to.signaled, th.Now())
		})
	}
	if p.dom != nil {
		p.dom.SendSized(to.dom, at, 0, signal)
		return
	}
	p.k.At(at, signal)
}

// sameWorld runs w with the loop and with WaitPoll and reports how the
// two outcomes differ, "" when they do not. It returns WaitPoll's.
func sameWorld(w pollWorld) (worldOutcome, string) {
	want := w.run(oracleWait)
	got := w.run(spinWait)
	if !reflect.DeepEqual(got, want) {
		return got, fmt.Sprintf("WaitPoll outcome differs from the loop's:\n got %+v\nwant %+v", got, want)
	}
	return got, ""
}

// TestWaitPollPairMatchesLoop: two pairs on one kernel both poll, so
// neither poller can advance in place past the other's slices, and
// every iteration of each is queued events. Each case must end as the
// loop does, per pair and per kernel, at every horizon.
func TestWaitPollPairMatchesLoop(t *testing.T) {
	us := sim.Microsecond
	at := func(d sim.Duration) sim.Time { return sim.Time(d) }
	// As in TestWaitPollSignalAtCheck, a poller checks at 25, 29, 33 µs,
	// ...; a signal computed for 11 µs lands at the 33 µs check, and one
	// computed for 13 µs at the 35 µs check that a block transfer from 26 µs moves
	// the word to.
	cabFirst := pollHost{waits: 1, signals: []sim.Duration{11 * us}}
	hostFirst := pollHost{waits: 1, signals: []sim.Duration{13 * us}, dma: []dmaBurst{{at(26 * us), 0, 1}}}
	end := []sim.Duration{sim.Millisecond}
	for _, tc := range []struct {
		name  string
		world pollWorld
		check func(t *testing.T, o worldOutcome)
	}{
		{"signal-at-check/cab-host", pollWorld{hosts: []pollHost{cabFirst, hostFirst}, horizons: end},
			func(t *testing.T, o worldOutcome) { seesSignal(t, o, 0, true); seesSignal(t, o, 1, false) }},
		{"signal-at-check/host-cab", pollWorld{hosts: []pollHost{hostFirst, cabFirst}, horizons: end},
			func(t *testing.T, o worldOutcome) { seesSignal(t, o, 0, false); seesSignal(t, o, 1, true) }},
		{"signal-at-check/both-cab", pollWorld{hosts: []pollHost{cabFirst, cabFirst}, horizons: end},
			func(t *testing.T, o worldOutcome) { seesSignal(t, o, 0, true); seesSignal(t, o, 1, true) }},
		{"dma-holds-one-bus", pollWorld{hosts: []pollHost{
			{waits: 1, signals: []sim.Duration{200 * us}, dma: []dmaBurst{{at(26500), 64, 5}}},
			{waits: 2, delay: 1500, signals: []sim.Duration{60 * us, 50 * us}},
		}, horizons: end}, nil},
		{"interrupt-mid-slice", pollWorld{hosts: []pollHost{
			{waits: 1, signals: []sim.Duration{150 * us}, intrs: []hostIntr{{at(30500), 7 * us}, {at(93500), 7 * us}}},
			{waits: 1, delay: 500, signals: []sim.Duration{100 * us}},
		}, horizons: end}, func(t *testing.T, o worldOutcome) {
			if o.polls[0].hostSwitches != 3 {
				t.Errorf("host 1 made %d context switches, want 3", o.polls[0].hostSwitches)
			}
		}},
		{"runfor-mid-spin", pollWorld{hosts: []pollHost{
			{waits: 2, signals: []sim.Duration{100 * us, 40 * us}},
			{waits: 1, delay: 2 * us, signals: []sim.Duration{70 * us}},
		}, horizons: []sim.Duration{50500, 30 * us, 33 * us, 1500, 100 * us, sim.Millisecond}}, func(t *testing.T, o worldOutcome) {
			if s := o.horizons[0][0]; !s.queued || s.pending == 0 {
				t.Errorf("nothing queued at the first horizon (%+v): it is not mid-spin", s)
			}
		}},
		{"coupled", pollWorld{hosts: []pollHost{
			{waits: 2, signals: []sim.Duration{40 * us, 30 * us}, relay: 2},
			{waits: 2, delay: 1500, signals: []sim.Duration{90 * us}, dma: []dmaBurst{{at(30 * us), 32, 3}}},
		}, coupled: true, horizons: []sim.Duration{50500, 20 * us, sim.Millisecond}}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, diff := sameWorld(tc.world)
			if diff != "" {
				t.Fatal(diff)
			}
			if o.err != "" {
				t.Fatal(o.err)
			}
			for i, h := range tc.world.hosts {
				if len(o.exits[i]) != h.waits {
					t.Fatalf("pair %d returned from %d of its %d waits", i+1, len(o.exits[i]), h.waits)
				}
			}
			if tc.check != nil {
				tc.check(t, o)
			}
		})
	}
}

// seesSignal checks that pair i's only signal landed at one of its
// poller's checks, and that the check at that instant saw it (seen) or
// missed it, on the loop's own record of its checks.
func seesSignal(t *testing.T, o worldOutcome, i int, seen bool) {
	t.Helper()
	signaled, exit := o.signaled[i][0], o.exits[i][0]
	if got := exit == signaled; got != seen {
		t.Errorf("pair %d exited at %v after a signal at %v; want the check there to see it: %v",
			i+1, exit, signaled, seen)
	}
	if !seen && (exit-signaled)%sim.Time(4*sim.Microsecond) != 0 {
		t.Errorf("pair %d exited at %v, not a whole number of iterations after the signal at %v",
			i+1, exit, signaled)
	}
}

// worldReader decodes a fuzz input; it reads 0 once the bytes run out.
type worldReader []byte

func (r *worldReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// decodeWorld turns bytes into a world of 1–3 pairs. Times are in steps
// of 500 ns, so signals, words, slices and interrupts often share an
// instant; every run ends at a horizon at most 2 ms in.
func decodeWorld(data []byte) pollWorld {
	r := worldReader(data)
	half := func(n int) sim.Duration { return sim.Duration(n) * 500 * sim.Nanosecond }
	var w pollWorld
	n := 1 + r.next()%3
	w.coupled = n > 1 && r.next()%2 == 1
	for range n {
		h := pollHost{delay: half(r.next() % 16), waits: 1 + r.next()%2, relay: r.next() % 4}
		for range r.next() % 3 {
			h.signals = append(h.signals, half(1+r.next()%160))
		}
		for range r.next() % 3 {
			h.dma = append(h.dma, dmaBurst{at: sim.Time(half(r.next())), bytes: 16 * (r.next() % 8), count: 1 + r.next()%3})
		}
		for range r.next() % 3 {
			h.intrs = append(h.intrs, hostIntr{at: sim.Time(half(r.next())), handler: half(1 + r.next()%16)})
		}
		w.hosts = append(w.hosts, h)
	}
	for range r.next() % 4 {
		w.horizons = append(w.horizons, half(1+r.next()%200))
	}
	w.horizons = append(w.horizons, 2*sim.Millisecond)
	return w
}

// FuzzWaitPollMatchesLoop decodes 1–3 polling pairs, their signals, DMA
// bursts, interrupts and RunFor horizons, on one kernel or across a
// coupling, and fails if WaitPoll's outcome differs from the loop's.
func FuzzWaitPollMatchesLoop(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0, 1, 22, 0, 0, 0, 1, 0, 1, 26, 1, 0, 0})
	f.Add([]byte{1, 1, 3, 1, 2, 1, 80, 60, 0, 1, 53, 0, 0, 3, 1, 0, 1, 140, 0, 0, 2, 101, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, diff := sameWorld(decodeWorld(data)); diff != "" {
			t.Fatal(diff)
		}
	})
}

// blockTransferWords is how many word times a block transfer of n bytes
// holds the bus: 8 for its setup, then one per 4-byte word.
func blockTransferWords(n int) int { return 8 + (n+3)/4 }

// blockTransfer holds bus for a block transfer of n bytes from now, as
// another bus master would, and calls done when it ends. The bus books it
// with its programmed-I/O words: the model has no VME DMA engine.
func blockTransfer(k *sim.Kernel, bus *vme.Bus, n int, done func()) {
	k.After(bus.Reserve(blockTransferWords(n)), done)
}
