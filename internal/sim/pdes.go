// Conservative parallel discrete-event simulation: a Coupling runs several
// Kernels ("domains") concurrently on OS threads under a synchronous
// safe-window scheduler (the YAWNS/LBTS family of algorithms).
//
// The correctness argument is the classical conservative one, applied per
// destination domain. Each domain exposes, through its registered
// Gateways, an Earliest Output Time per channel: a lower bound on the
// virtual timestamp of any future message it can emit into domain dst. The
// scheduler first computes activity floors act(d) — a lower bound on when
// *any* event can execute in d — as the fixpoint of
//
//	act(d) = min(NET(d), min over d' != d, gateways g of d' of g.EarliestOutputTo(d, act(d')))
//
// (Bellman-Ford over the domain graph; raw next-event times alone would be
// unsound, because a domain that ran far ahead can be pulled back by an
// incoming message and then emit into another domain's past — the
// fixpoint accounts for such transitive wake-up chains). The
// per-destination bound is then
//
//	B(A) = min over domains d != A, gateways g of d of g.EarliestOutputTo(A, act(d))
//
// and domain A executes, in parallel with the others, every event with
// timestamp strictly below B(A). Safety is per channel: any message
// arriving at A is emitted by some other domain's gateway g at or after
// g.EarliestOutputTo(A, act(owner)) >= B(A). Excluding A's own gateways
// means a domain never throttles itself on its own potential emissions,
// which is what lets windows coalesce. Inter-domain messages produced
// inside the window (Domain.Send) are buffered in per-source outboxes and
// injected into their destination kernels at the barrier, in deterministic
// (source domain index, emission order) order, before the next window is
// chosen.
//
// Progress is guaranteed whenever every gateway has strictly positive
// lookahead (EarliestOutputTo(dst, act) > act): then the domain holding
// the earliest event has a bound above it and executes at least one event
// per window. A zero-lookahead gateway (e.g. a Nectar circuit, which
// forwards with zero switch delay) would stall the scheduler, which is
// reported as an error rather than spinning.
//
// Execution: every domain has exactly one owner goroutine. The goroutine
// that calls Run/RunUntil/RunFor is the scheduler and owns domain 0;
// one worker goroutine per run owns each other domain. There is one
// window path for every domain count, and a coupling of one domain is
// that path with no workers.
//
// Determinism: within a domain the kernel's (time, seq) order is untouched;
// across domains every scheduler decision (NET, B, outbox drain order) is a
// pure function of simulation state, so repeated runs are bit-identical. The
// residual difference from a sequential single-kernel run is the seq
// tiebreak among events at the *exact same nanosecond* that are causally
// independent across domains; internal/obs canonicalization makes rendered
// output order-independent for such ties.
package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync/atomic"

	"nectar/internal/prof"
)

// MaxTime is the "never" sentinel used by the coupling scheduler and by
// Gateway implementations. It is far below math.MaxInt64 so that adding a
// lookahead to it cannot overflow.
const MaxTime Time = math.MaxInt64 / 4

// Gateway is an inter-domain output port. EarliestOutputTo returns a lower
// bound on the timestamp of any future inter-domain message this gateway
// can emit *into domain dst*, given actFloor — a lower bound on the
// earliest instant any event can execute in the gateway's owning domain
// (its next event time; MaxTime when idle). Implementations typically
// sharpen the bound two ways: traffic already committed to other
// destinations does not cap the bound for dst, and hypothetical future
// emissions can carry a preparation margin (CPU time provably consumed
// between the triggering event and the emission). Implementations should
// saturate at MaxTime rather than overflow. It is only called between
// windows, never concurrently with domain execution.
type Gateway interface {
	EarliestOutputTo(dst int, actFloor Time) Time
}

// pendingInj is one buffered inter-domain message. bytes carries the
// message's wire size when known (SendSized) so the profiler can
// attribute cross-shard drain volume; it never affects scheduling.
type pendingInj struct {
	at    Time
	bytes int
	fn    func()
}

// Domain is one kernel participating in a Coupling.
type Domain struct {
	c  *Coupling
	id int
	// The domain's kernel and outbox are the per-shard state the PDES
	// determinism proof rests on: only the domain's owner goroutine may
	// touch them inside a window, and cross-domain traffic must go
	// through the window-barrier drain (//nectar:shard-boundary
	// surfaces). The annotations make nectar-vet's shardsafe analyzer
	// enforce exactly that.
	k        *Kernel //nectar:shard-owned
	gateways []Gateway
	out      [][]pendingInj //nectar:shard-owned

	// Adaptive window barrier. Safe windows are short (the HUB setup
	// lookahead is 700 ns of virtual time, typically a handful of events
	// costing a few microseconds of wall clock), so parking the worker
	// goroutine on a channel at every barrier costs more than the window
	// itself. The scheduler publishes each window by storing its bound and
	// then a fresh sequence number; the worker executes and stores the
	// sequence back. Both sides first spin on the atomics (sync/atomic
	// gives the barrier its happens-before edges) and only park on their
	// wake channel after spinLimit polls, so in steady state windows hand
	// off in nanoseconds while an idle simulation still blocks properly.
	winSeq  atomic.Uint64 // scheduler -> worker: window sequence
	doneSeq atomic.Uint64 // worker -> scheduler: completed sequence
	winB    atomic.Int64  // bound of the published window
	werr    error         // set by the worker before doneSeq
	stop    atomic.Bool   // scheduler -> worker: exit when idle
	exited  chan struct{} // closed by the worker on exit
	wp      parker        // worker's park/wake point

	// wprof is the shard's wall-clock profiling collector (nil unless the
	// coupling has a profile attached): the domain's owner accrues its
	// compute time and, on a worker, the spin-vs-park barrier wait split
	// into it. All collector methods are nil-receiver tolerant, so the
	// disabled barrier path costs one nil check. computeCtx and waitCtx
	// are the owner's pprof labels inside and between windows (nil
	// unless profiled).
	wprof               *prof.Worker
	computeCtx, waitCtx context.Context
}

// spinLimit bounds busy-polling at the window barrier before parking on
// the wake channel (roughly a few microseconds of polling).
const spinLimit = 4096

// UsableCores is how many goroutines can run at once: GOMAXPROCS capped
// by the host's CPUs. It is the one rule for whether a coupling's shards
// are oversubscribed, and the barrier spins only when it exceeds the
// number of domains.
func UsableCores() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// parker is a two-phase wait point: the waiter advertises that it is
// about to block, re-checks its condition, and then receives on wake; the
// signaler stores the condition and sends a token only if the waiter is
// (or is about to be) parked. The buffered channel makes the token send
// non-blocking; a stale token at most causes one spurious re-check, never
// a missed wakeup, because the waiter always re-checks its condition
// between parking and blocking.
type parker struct {
	parked atomic.Bool
	wake   chan struct{}
}

func newParker() parker { return parker{wake: make(chan struct{}, 1)} }

// wakeIf sends a wake token if the waiter advertised itself parked.
func (p *parker) wakeIf() {
	if p.parked.Load() {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// awaitWindow blocks until a window newer than last is published (returning
// its sequence) or the scheduler asks the worker to exit (returning ok =
// false). It spins first and parks only when the simulation goes quiet.
// parked reports whether the wait ever blocked on the wake channel (the
// profiler's spin-vs-park barrier split).
func (d *Domain) awaitWindow(last uint64) (seq uint64, ok, parked bool) {
	for {
		for i := 0; i < d.c.spin; i++ {
			if s := d.winSeq.Load(); s != last {
				return s, true, parked
			}
			if d.stop.Load() {
				return 0, false, parked
			}
		}
		d.wp.parked.Store(true)
		if d.winSeq.Load() == last && !d.stop.Load() {
			<-d.wp.wake
			parked = true
		}
		d.wp.parked.Store(false)
		if s := d.winSeq.Load(); s != last {
			return s, true, parked
		}
		if d.stop.Load() {
			return 0, false, parked
		}
	}
}

// work is a worker goroutine's loop: it runs every window the scheduler
// publishes to its domain until the scheduler asks it to exit.
func (d *Domain) work() {
	defer close(d.exited)
	w := d.wprof
	if w != nil {
		pprof.SetGoroutineLabels(d.waitCtx)
		defer pprof.SetGoroutineLabels(context.Background())
	}
	// Resume from the last *completed* window: the scheduler may publish
	// the first window of this run before the worker's first load, so
	// initializing from winSeq would skip it. tw is the worker's chained
	// stopwatch: each collector call returns the sample that starts the
	// next interval, so wait and compute tile the worker's wall clock
	// exactly.
	last := d.doneSeq.Load()
	tw := w.Now()
	for {
		s, ok, parked := d.awaitWindow(last)
		if !ok {
			return
		}
		tw = w.Wait(tw, parked)
		tw, d.werr = d.runWindow(tw, Time(d.winB.Load()))
		d.doneSeq.Store(s)
		d.c.sp.wakeIf()
		last = s
	}
}

// runWindow executes the domain's events below bound on the calling
// goroutine, which must be the domain's owner, and accrues the window to
// the shard's collector. t0 starts the window on the owner's stopwatch;
// the returned sample ends it.
func (d *Domain) runWindow(t0 int64, bound Time) (int64, error) {
	w := d.wprof
	if w == nil {
		return 0, d.k.runBounded(bound)
	}
	ev0 := d.k.steps
	pprof.SetGoroutineLabels(d.computeCtx)
	err := d.k.runBounded(bound)
	t1 := w.Compute(t0, d.k.steps-ev0)
	pprof.SetGoroutineLabels(d.waitCtx)
	return t1, err
}

// awaitDone blocks until domain d reports window seq complete, spinning
// first and parking on the scheduler's wake point if the worker is slow.
func (c *Coupling) awaitDone(d *Domain, seq uint64) {
	for {
		for i := 0; i < c.spin; i++ {
			if d.doneSeq.Load() == seq {
				return
			}
		}
		c.sp.parked.Store(true)
		if d.doneSeq.Load() != seq {
			<-c.sp.wake
		}
		c.sp.parked.Store(false)
		if d.doneSeq.Load() == seq {
			return
		}
	}
}

// Kernel returns the domain's kernel.
func (d *Domain) Kernel() *Kernel { return d.k }

// ID returns the domain's index within its Coupling.
func (d *Domain) ID() int { return d.id }

// AddGateway registers an inter-domain output port with the domain. Every
// path by which the domain can emit inter-domain messages must be covered
// by a gateway, or the safe bound would be wrong.
func (d *Domain) AddGateway(g Gateway) { d.gateways = append(d.gateways, g) }

// Send delivers fn at virtual time at in dst. Same-domain sends degenerate
// to Kernel.At. Cross-domain sends are buffered and injected at the next
// window barrier; at must be >= the current safe bound, which holds by
// construction when at carries a gateway's lookahead. Send must be called
// from within d's executing window (i.e. from an event on d's kernel).
func (d *Domain) Send(dst *Domain, at Time, fn func()) { d.SendSized(dst, at, 0, fn) }

// SendSized is Send carrying the message's wire size in bytes, which the
// wall-clock profiler attributes to the source shard's cross-shard drain
// volume. Pass 0 when no meaningful size exists.
func (d *Domain) SendSized(dst *Domain, at Time, bytes int, fn func()) {
	if dst == d {
		d.k.At(at, fn)
		return
	}
	d.out[dst.id] = append(d.out[dst.id], pendingInj{at: at, bytes: bytes, fn: fn})
}

// Coupling couples kernels into one logical simulation advancing in
// conservative safe windows. The scheduler executes domain 0 and one
// worker goroutine each of the others; the scheduler synchronizes them at
// window barriers, so model code still never needs locks (each kernel
// remains single-threaded).
type Coupling struct {
	domains []*Domain
	windows uint64 // safe windows executed (scheduler statistics)
	multi   uint64 // windows with >1 active domain (true parallelism)
	sp      parker // scheduler's park/wake point (workers signal done)
	spin    int    // barrier poll budget before parking (set per run)

	// Per-destination safe bounds: bounds[i] is domain i's window bound
	// for the current round, acts[i] its activity floor; both are sized
	// as domains are added. active holds the round's domains with events
	// below their bounds.
	bounds []Time
	acts   []Time
	active []*Domain

	// pr is the attached wall-clock profile, nil unless profiling was
	// requested. Every collector call below is nil-receiver tolerant, so
	// the disabled scheduler pays one nil check per phase and the worker
	// barrier path stays allocation-free (AllocsPerRun-guarded).
	pr *prof.Profile
}

// SetProfile attaches a wall-clock profile to the coupling (nil detaches
// it). It must only be called between runs: the scheduler and its workers
// read the pointer un-synchronized while a run is in flight.
func (c *Coupling) SetProfile(p *prof.Profile) { c.pr = p }

// Profile returns the attached wall-clock profile, nil when disabled.
func (c *Coupling) Profile() *prof.Profile { return c.pr }

// Windows reports how many safe windows the scheduler has executed; the
// ratio of events to windows is the effective batching the lookahead
// bought. A one-domain coupling has no other domain to bound it, so it
// runs one window per Run/RunUntil/RunFor call with events to execute.
func (c *Coupling) Windows() uint64 { return c.windows }

// MultiWindows reports how many of those windows had more than one active
// domain (i.e. actually executed in parallel).
func (c *Coupling) MultiWindows() uint64 { return c.multi }

// NewCoupling creates an empty coupling.
func NewCoupling() *Coupling { return &Coupling{sp: newParker()} }

// AddDomain wraps k as a new domain of the coupling. It must not be
// called while the coupling runs.
//
//nectar:shard-boundary grows every domain's outbox while the coupling is built, before any window runs
func (c *Coupling) AddDomain(k *Kernel) *Domain {
	d := &Domain{c: c, k: k, id: len(c.domains), wp: newParker()}
	for _, src := range c.domains {
		src.out = append(src.out, nil)
	}
	c.domains = append(c.domains, d)
	d.out = make([][]pendingInj, len(c.domains))
	c.bounds = append(c.bounds, 0)
	c.acts = append(c.acts, 0)
	return d
}

// Domains returns the number of domains.
func (c *Coupling) Domains() int { return len(c.domains) }

// Domain returns domain i.
func (c *Coupling) Domain(i int) *Domain { return c.domains[i] }

// Now returns the coupling's virtual time: the maximum over domain clocks
// (all clocks agree after RunUntil/RunFor).
//
//nectar:shard-boundary reads every domain clock between windows, when workers are quiescent behind the doneSeq barrier
func (c *Coupling) Now() Time {
	var t Time
	for _, d := range c.domains {
		if n := d.k.Now(); n > t {
			t = n
		}
	}
	return t
}

// Run executes the coupled simulation until every domain's queue is empty.
// Like Kernel.Run, blocked procs at drain time are a deadlock.
func (c *Coupling) Run() error { return c.run(MaxTime, true) }

// RunUntil executes events with timestamps <= horizon in every domain and
// then advances all clocks to horizon.
func (c *Coupling) RunUntil(horizon Time) error { return c.run(horizon, false) }

// RunFor is RunUntil(Now()+d).
func (c *Coupling) RunFor(d Duration) error { return c.run(c.Now()+Time(d), false) }

// run is the window scheduler: it computes each safe window, publishes
// it to the active workers, runs domain 0's share itself, and drains the
// outboxes at the barrier. It is the one function allowed to touch every
// domain's kernel and outbox; the winSeq/doneSeq atomics give those
// cross-domain accesses their happens-before edges (see the Domain
// comment above). A domain's kernel and its Proc coroutines are resumed
// only by the domain's one owner (see "Execution" in the package
// comment).
//
//nectar:shard-boundary window-barrier scheduler and outbox drain, ordered by the winSeq/doneSeq atomics
func (c *Coupling) run(horizon Time, drain bool) error {
	if len(c.domains) == 0 {
		return nil
	}
	// Spin at the barrier only when the usable cores outnumber the
	// coupling's parties (the scheduler plus one worker per other domain,
	// one goroutine per domain). Otherwise busy-polling can steal the
	// very core the awaited party needs, and parking promptly (plain
	// channel blocking) is the safe choice; whether spinning pays when
	// the parties exactly fill the cores is an open question.
	c.spin = 1
	if UsableCores() > len(c.domains) {
		c.spin = spinLimit
	}
	// pprof labels: each owner tags its compute and barrier time by
	// shard, and the scheduler's own phases by phase alone. Built before
	// the profiled wall-clock span opens — label-map construction is
	// setup cost, not a scheduler phase.
	var schedBase, schedDrain context.Context
	if c.pr != nil {
		schedBase = context.Background()
		schedDrain = pprof.WithLabels(schedBase, pprof.Labels("phase", "drain"))
		for _, d := range c.domains {
			shard := strconv.Itoa(d.id)
			d.computeCtx = pprof.WithLabels(schedBase, pprof.Labels("shard", shard, "phase", "compute"))
			d.waitCtx = pprof.WithLabels(schedBase, pprof.Labels("shard", shard, "phase", "barrier"))
		}
		c.domains[0].waitCtx = pprof.WithLabels(schedBase, pprof.Labels("phase", "barrier"))
		defer pprof.SetGoroutineLabels(schedBase)
	}

	tRun := c.pr.Now()
	for _, d := range c.domains {
		d.wprof = c.pr.Worker(d.id)
		if d.id > 0 {
			d.stop.Store(false)
			d.exited = make(chan struct{})
			go d.work()
		}
	}
	// ts is the scheduler's chained stopwatch: each phase collector samples
	// its end time once and returns it as the next phase's start, so
	// choose, barrier, domain 0's compute and drain intervals tile the
	// scheduler's wall clock exactly — collector bookkeeping is charged to
	// the following phase instead of leaking into unaccounted gaps.
	ts := c.pr.SpawnJoin(tRun)
	defer func() {
		tJoin := c.pr.Now()
		for _, d := range c.domains[1:] {
			d.stop.Store(true)
			d.wp.wakeIf()
		}
		for _, d := range c.domains[1:] {
			<-d.exited
		}
		c.pr.SpawnJoin(tJoin)
		c.pr.RunEnd(tRun)
	}()
	for {
		// Next Event Time per domain; MaxTime = idle.
		minNET := MaxTime
		for _, d := range c.domains {
			if at, ok := d.k.NextEventAt(); ok && at < minNET {
				minNET = at
			}
		}
		if minNET == MaxTime {
			// Globally idle.
			c.pr.ChooseAbort(ts)
			if !drain {
				for _, d := range c.domains {
					d.k.advanceTo(horizon)
				}
				return nil
			}
			var blocked []string
			for _, d := range c.domains {
				blocked = d.k.blockedNames(blocked)
			}
			if len(blocked) > 0 {
				return deadlock(c.Now(), blocked)
			}
			return nil
		}
		if !drain && minNET > horizon {
			c.pr.ChooseAbort(ts)
			for _, d := range c.domains {
				d.k.advanceTo(horizon)
			}
			return nil
		}
		// Safe bounds: one per destination domain, bounds[dst] = min over
		// *other* domains' gateways of their earliest output into dst.
		// Excluding dst's own gateways is what lets a shard run ahead of
		// its own potential emissions — with a single global bound, any
		// busy domain with an idle uplink pins every window at
		// net+lookahead.
		//
		// Activity floors: act[d] lower-bounds when *any* event can
		// execute in d — not just d's pending events, but also events
		// created by messages other domains may yet send it. A domain
		// far ahead of the pack can be pulled back by an injection
		// (its NET is not monotone across rounds!), so using raw NETs
		// as emission floors is unsound: A could be woken by B and
		// then emit into B's past. The fixpoint below (Bellman-Ford
		// over the domain graph; every hop adds at least the gateway
		// delay, so it converges in at most len(domains) passes)
		// accounts for those transitive wake-up chains.
		for _, d := range c.domains {
			c.acts[d.id] = MaxTime
			if at, ok := d.k.NextEventAt(); ok {
				c.acts[d.id] = at
			}
		}
		for changed := true; changed; {
			changed = false
			for _, d := range c.domains {
				for _, g := range d.gateways {
					for _, dst := range c.domains {
						if dst == d {
							continue
						}
						if e := g.EarliestOutputTo(dst.id, c.acts[d.id]); e < c.acts[dst.id] {
							c.acts[dst.id] = e
							changed = true
						}
					}
				}
			}
		}
		// Per-destination bounds from the converged floors: bounds[A]
		// = min over other domains' gateways of their earliest output
		// into A.
		for i := range c.bounds {
			c.bounds[i] = MaxTime
		}
		for _, d := range c.domains {
			act := c.acts[d.id]
			for _, g := range d.gateways {
				emin := MaxTime
				for _, dst := range c.domains {
					if dst == d {
						continue
					}
					e := g.EarliestOutputTo(dst.id, act)
					if e < c.bounds[dst.id] {
						c.bounds[dst.id] = e
					}
					if e < emin {
						emin = e
					}
				}
				if c.pr != nil && act < MaxTime {
					if emin < MaxTime {
						c.pr.Lookahead(int64(emin - act))
					} else {
						c.pr.UnboundedGateway()
					}
				}
			}
		}
		bMin := MaxTime
		for _, b := range c.bounds {
			if b < bMin {
				bMin = b
			}
		}
		end := bMin // where the window stops, after the horizon clamp
		if !drain {
			for i := range c.bounds {
				if c.bounds[i] > horizon+1 {
					c.bounds[i] = horizon + 1 // runBounded is exclusive: executes events <= horizon
				}
			}
			end = min(end, horizon)
		}
		span := int64(0) // virtual window width
		if end > minNET {
			span = int64(end - minNET)
		}
		// Parallel window: every domain with events below its bound
		// executes them; idle domains are skipped (their clocks advance
		// lazily).
		c.windows++
		seq := c.windows
		c.active = c.active[:0]
		for _, d := range c.domains {
			if at, ok := d.k.NextEventAt(); ok && at < c.bounds[d.id] {
				c.active = append(c.active, d)
			}
		}
		active := c.active
		if len(active) == 0 {
			// Per-channel bounds guarantee progress whenever gateways have
			// positive lookahead toward the minNET owner; an empty active
			// set means some gateway reported a bound at or below a
			// pending event, i.e. zero lookahead.
			c.pr.ChooseAbort(ts)
			return fmt.Errorf("sim: coupling stalled at %v: no domain below its safe bound (min bound %v, next event %v)",
				c.Now(), bMin, minNET)
		}
		ts = c.pr.Choose(ts, span, len(active))
		if len(active) > 1 {
			c.multi++
		}
		var ev0 uint64
		if c.pr != nil {
			for _, d := range active {
				ev0 += d.k.steps
			}
			pprof.SetGoroutineLabels(c.domains[0].waitCtx)
		}
		// Publish the window to every active worker; domain 0, when
		// active, is the scheduler's own to run.
		published := active
		if active[0].id == 0 {
			published = active[1:]
		}
		for _, d := range published {
			d.winB.Store(int64(c.bounds[d.id]))
			d.winSeq.Store(seq)
			d.wp.wakeIf()
		}
		var firstErr error
		if len(published) < len(active) {
			if len(published) > 0 {
				// A worker readied by this goroutine (channel wake or
				// go statement) sits in this P's runnext slot, so it
				// would wait for a work-stealing P while domain 0
				// computes, and the shards would run one after the
				// other. Yield once to let it start first.
				runtime.Gosched()
			}
			ts = c.pr.Barrier(ts)
			ts, firstErr = active[0].runWindow(ts, c.bounds[0])
		}
		for _, d := range published {
			c.awaitDone(d, seq)
			if err := d.werr; err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if c.pr != nil {
			pprof.SetGoroutineLabels(schedBase)
			ts = c.pr.Barrier(ts)
			var ev1 uint64
			for _, d := range active {
				ev1 += d.k.steps
			}
			c.pr.WindowEvents(ev1 - ev0)
		}
		if firstErr != nil {
			return firstErr
		}
		if c.pr != nil {
			pprof.SetGoroutineLabels(schedDrain)
		}
		c.drainOutboxes()
		if c.pr != nil {
			pprof.SetGoroutineLabels(schedBase)
		}
		ts = c.pr.Drain(ts)
	}
}

// drainOutboxes injects the messages buffered during a window, in
// deterministic order (source domain index, then emission order). Every
// buffered timestamp is >= the destination's bound for the window > every
// event its kernel executed, so injection never schedules into the past.
// Each (src, dst) batch is injected in one kernel call: sequence numbers
// are assigned in drain order, and heap pop order depends only on the
// (time, seq) keys, so batching cannot perturb the merged event order.
//
//nectar:shard-boundary window-barrier outbox drain, run by the scheduler while every worker waits behind doneSeq
func (c *Coupling) drainOutboxes() {
	for _, src := range c.domains {
		for dstID, injs := range src.out {
			if len(injs) == 0 {
				continue
			}
			bytes := c.domains[dstID].k.injectBatch(injs)
			c.pr.DrainOut(src.id, uint64(len(injs)), bytes)
			src.out[dstID] = injs[:0]
		}
	}
}
