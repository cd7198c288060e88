// Package hostif implements the host-CAB signaling machinery of paper
// §3.2 and Figure 4: host condition variables (with both polling and
// blocking waits), the host and CAB signal queues, the CAB device driver's
// interrupt handler, and the simple host-to-CAB RPC facility built on the
// signaling mechanism.
//
// Host condition variables live in CAB memory where both sides can access
// them. Signal increments a poll value; a polling host process spins on
// the value with cheap mapped reads (no system call on the fast path),
// while a blocking wait enters the CAB driver, which records the waiter
// and sleeps the process until the CAB interrupts the host.
package hostif

import (
	"fmt"

	"nectar/internal/hw/cab"
	"nectar/internal/hw/host"
	"nectar/internal/hw/vme"
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/pool"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// CABQueueCap is the capacity of the CAB signal queue. The queue has
// fixed-size elements (paper §3.2); overflow is a runtime-system bug and
// fails the simulation.
const CABQueueCap = 256

// IF is the host-CAB interface for one host/CAB pair.
type IF struct {
	cab  *cab.CAB
	k    *sim.Kernel
	cost *model.CostModel

	cabQ  []cabReq    // host -> CAB requests
	hostQ []*HostCond // CAB -> host notifications

	conds uint64 // allocated host conditions (naming)

	posts, doorbells, hostIntr uint64

	pollers pool.FreeList[*poller] // WaitPoll state records

	obs       *obs.Observer
	doorbellH *obs.Histogram // post-to-dispatch latency of CAB requests
}

type cabReq struct {
	name string
	fn   func(t *threads.Thread)
	at   sim.Time // when the host posted the request
}

// New wires the interface for a host and its CAB, registering both
// interrupt handlers.
func New(h *host.Host, c *cab.CAB) *IF {
	f := &IF{cab: c, k: h.Kernel(), cost: h.Cost()}
	c.OnHostDoorbell(f.cabISR)
	h.OnCABInterrupt(f.hostISR)
	f.obs = obs.Ensure(f.k)
	m := f.obs.Metrics()
	m.Register(f)
	f.doorbellH = m.Histogram(obs.LayerHostIF, "doorbell_latency", c.Scope())
	f.pollers.Put(newPoller())
	return f
}

// Gauges reports the interface's posts, doorbells and host interrupts
// (obs.Source).
func (f *IF) Gauges(emit func(layer obs.Layer, name, scope string, v uint64)) {
	scope := f.cab.Scope()
	emit(obs.LayerHostIF, "posts", scope, f.posts)
	emit(obs.LayerHostIF, "doorbells", scope, f.doorbells)
	emit(obs.LayerHostIF, "host_interrupts", scope, f.hostIntr)
}

// CAB returns the CAB side of the pair.
func (f *IF) CAB() *cab.CAB { return f.cab }

// PostToCAB places a request in the CAB signal queue and rings the CAB's
// doorbell (paper §3.2: "Host processes wake up CAB threads by placing a
// request in the CAB signal queue and interrupting the CAB"). fn runs on
// the CAB in interrupt context. Must be called from a host context.
func (f *IF) PostToCAB(ctx exec.Context, name string, fn func(t *threads.Thread)) {
	if !ctx.IsHost() {
		panic("hostif: PostToCAB from CAB context")
	}
	if len(f.cabQ) >= CABQueueCap {
		f.k.Fatalf("hostif: CAB signal queue overflow")
		return
	}
	ctx.Words(2 + 1) // queue element (opcode + parameter) plus doorbell register
	f.posts++
	if f.obs.Tracing() {
		f.obs.InstantArg(int(f.cab.Node()), obs.LayerHostIF, "post", name, 0, 0)
	}
	f.cabQ = append(f.cabQ, cabReq{name, fn, f.k.Now()})
	f.cab.RingFromHost()
}

// cabISR is the CAB's doorbell handler: drain the CAB signal queue.
func (f *IF) cabISR(t *threads.Thread) {
	f.doorbells++
	if f.obs.Tracing() {
		f.obs.Instant(int(f.cab.Node()), obs.LayerHostIF, "cab_isr")
	}
	for len(f.cabQ) > 0 {
		req := f.cabQ[0]
		f.cabQ = sim.PopFront(f.cabQ)
		t.Compute(1 * sim.Microsecond) // dequeue and dispatch
		f.doorbellH.Observe(sim.Duration(f.k.Now() - req.at))
		req.fn(t)
	}
}

// hostISR is the host's CAB-driver interrupt handler: drain the host
// signal queue and wake processes waiting on the signaled conditions
// (paper §3.2 and Figure 4).
func (f *IF) hostISR(t *threads.Thread) {
	f.hostIntr++
	if f.obs.Tracing() {
		f.obs.Instant(int(f.cab.Node()), obs.LayerHostIF, "host_isr")
	}
	t.Compute(f.cost.HostInterrupt)
	for len(f.hostQ) > 0 {
		hc := f.hostQ[0]
		f.hostQ = sim.PopFront(f.hostQ)
		t.Compute(1 * sim.Microsecond)
		hc.wakeAll()
	}
}

// HostCond is a host condition variable (paper §3.2). It conceptually
// lives in CAB memory; every access from the host side is charged as a
// VME word access.
type HostCond struct {
	f       *IF
	name    string
	poll    uint32
	waiters []*threads.Thread // host processes blocked in the driver
	queued  bool              // already in the host signal queue
}

// NewHostCond allocates a host condition in CAB memory.
func (f *IF) NewHostCond(name string) *HostCond {
	f.conds++
	return &HostCond{f: f, name: fmt.Sprintf("%s#%d", name, f.conds)}
}

// Poll reads the condition's poll value (one mapped read).
func (hc *HostCond) Poll(ctx exec.Context) uint32 {
	ctx.Words(1)
	return hc.poll
}

// Signal increments the poll value and, if any process is blocked in the
// driver, arranges for it to be woken: directly when the signaler is a
// host process, via the host signal queue and a host interrupt when the
// signaler is a CAB thread (paper §3.2: "Both CAB threads and host
// processes can signal a host condition").
func (hc *HostCond) Signal(ctx exec.Context) {
	ctx.Compute(hc.f.cost.SyncOp)
	ctx.Words(1)
	if hc.f.obs.Tracing() {
		hc.f.obs.InstantArg(int(hc.f.cab.Node()), obs.LayerHostIF, "signal", hc.name, 0, 0)
	}
	hc.poll++
	if len(hc.waiters) == 0 {
		return
	}
	if ctx.IsHost() {
		hc.wakeAll()
		return
	}
	// CAB side: enqueue on the host signal queue and interrupt the host.
	ctx.Compute(hc.f.cost.HostSignal)
	ctx.Words(2)
	if !hc.queued {
		hc.queued = true
		hc.f.hostQ = append(hc.f.hostQ, hc)
		hc.f.cab.InterruptHost()
	}
}

func (hc *HostCond) wakeAll() {
	hc.queued = false
	// Unblock runs no thread, so nothing joins the queue mid-loop.
	for i, w := range hc.waiters {
		hc.waiters[i] = nil
		w.Unblock()
	}
	hc.waiters = hc.waiters[:0]
}

// WaitPoll spins on the poll value until it differs from since (obtained
// from a prior Poll), charging one mapped read per iteration. This is the
// paper's no-system-call fast path for latency-critical waits.
//
// The loop body is one Compute(HostPollIteration), one PIO word, and the
// check. It runs as a Spin step (poller.step), so an iteration that has
// to wait for its compute or its bus word continues from the thread's
// wake-up instead of switching into the host process. The slice ends and
// wake-ups of such waits skip the kernel's heap: they wait in the
// thread's spin slot under the keys the heap would give them, so two
// hosts polling on one kernel cost no heap operation per iteration (the
// sim package doc, "Spin slots").
func (hc *HostCond) WaitPoll(ctx exec.Context, since uint32) {
	if !ctx.IsHost() {
		panic("hostif: WaitPoll from CAB context")
	}
	f := hc.f
	w, ok := f.pollers.Get()
	if !ok {
		w = newPoller()
	}
	w.hc, w.t, w.bus, w.since, w.phase = hc, ctx.T, ctx.Host.Bus, since, pollCompute
	ctx.T.Spin(w.stepFn)
	w.hc, w.t, w.bus = nil, nil, nil
	f.pollers.Put(w)
}

// poller is the state of one WaitPoll in progress: the loop's variables
// and the phase of the iteration it is in. IF.pollers recycles them, and
// stepFn is built once per record, so a WaitPoll allocates nothing.
type poller struct {
	hc     *HostCond
	t      *threads.Thread
	bus    *vme.Bus
	since  uint32
	phase  pollPhase
	stepFn func() bool // w.step
}

// pollPhase is where a poller's step resumes.
type pollPhase uint8

const (
	pollCompute pollPhase = iota // charge HostPollIteration
	pollWord                     // read the poll value over the bus
	pollCheck                    // compare it with since
)

func newPoller() *poller {
	w := &poller{}
	w.stepFn = w.step
	return w
}

// step runs the poll loop from w.phase until the value has changed
// (true) or a Compute starts a wait (false). Each phase performs the
// StartCompute or Reserve the loop's Compute or Words would, at the same
// instant, so every event is the loop's.
//
//nectar:hotpath
func (w *poller) step() bool {
	for {
		switch w.phase {
		case pollCompute:
			w.phase = pollWord
			if !w.t.StartCompute(w.hc.f.cost.HostPollIteration) {
				return false
			}
		case pollWord:
			w.phase = pollCheck
			if !w.t.StartCompute(w.bus.Reserve(1)) {
				return false
			}
		default: // pollCheck
			if w.hc.poll != w.since {
				return true
			}
			w.phase = pollCompute
		}
	}
}

// WaitBlocking enters the CAB driver and sleeps the calling process until
// the condition is signaled (paper §3.2: polling "wastes host CPU cycles",
// so a server process waits in the driver instead). since guards against
// a signal that arrived after the caller last observed the poll value.
func (hc *HostCond) WaitBlocking(ctx exec.Context, since uint32) {
	if !ctx.IsHost() {
		panic("hostif: WaitBlocking from CAB context")
	}
	ctx.Compute(hc.f.cost.HostSyscall) // enter the driver
	ctx.Words(1)
	if hc.poll != since {
		return // already signaled
	}
	hc.waiters = append(hc.waiters, ctx.T)
	ctx.T.BlockOn("hostcond", hc.name)
	ctx.Compute(hc.f.cost.HostSyscall / 2) // return path from the driver
}

// CallCAB is the simple host-to-CAB RPC facility (paper §3.2): the request
// is posted to the CAB signal queue; fn runs on the CAB in interrupt
// context and returns a one-word result, which the host retrieves through
// the returned completion. The paper's sync abstraction provides the
// equivalent synchronization for general use; the driver-internal variant
// here keeps the packages layered.
func (f *IF) CallCAB(ctx exec.Context, name string, fn func(t *threads.Thread) uint32) uint32 {
	done := f.NewHostCond("rpc:" + name)
	var result uint32
	since := done.Poll(ctx)
	f.PostToCAB(ctx, name, func(t *threads.Thread) {
		result = fn(t)
		done.Signal(exec.OnCAB(t))
	})
	done.WaitPoll(ctx, since)
	ctx.Words(1) // fetch the result word
	return result
}
