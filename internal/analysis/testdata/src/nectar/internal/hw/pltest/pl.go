// Package pltest exercises the poollife analyzer against the real pool
// surfaces: leaks on error paths, conditional acquires refined by their
// ok result, every ownership-transfer shape (field store, return,
// closure capture, annotated callee), borrows that do NOT settle,
// double-releases (explicit and deferred), use-after-release, discarded
// acquires, //nectar:leak-ok waivers, and //nectar:takes-ownership
// naming a parameter that does not exist.
package pltest

import (
	"nectar/internal/hw/fiber"
	"nectar/internal/pool"
	"nectar/internal/sim"
)

// work borrows the packet: no //nectar:takes-ownership, so the release
// obligation stays with the caller.
func work(pkt *fiber.Packet) {}

// consume assumes the release obligation and honors it on every path.
//
//nectar:takes-ownership pkt released unconditionally before returning
func consume(pkt *fiber.Packet) {
	pkt.Release()
}

// --- leaks ---

func leakOnErrorPath(p *fiber.Pool, bad bool) {
	pkt := p.GetPacket() // want `pooled packet pkt is not released on every path`
	if bad {
		return // this arm abandons pkt
	}
	pkt.Release()
}

func borrowDoesNotSettle(p *fiber.Pool) {
	pkt := p.GetPacket() // want `pooled packet pkt is not released on every path`
	work(pkt)            // a borrow: the obligation stays here
}

func leakConditional(fl *pool.FreeList[[]byte], n int) {
	b, ok := fl.Get() // want `pooled slot b is not released on every path`
	if ok && n > 0 {  // the ok&&n arm releases, but ok&&!n leaks b
		fl.Put(b)
	}
}

// --- conditional acquires refined by ok ---

func refinedEarlyReturn(fl *pool.FreeList[[]byte]) {
	b, ok := fl.Get()
	if !ok {
		return // ok is false here: nothing was produced, nothing owed
	}
	fl.Put(b)
}

func refinedGuardedRelease(fl *pool.FreeList[[]byte]) {
	b, ok := fl.Get()
	if ok {
		fl.Put(b) // ok: released on the true edge, never produced on the false one
	}
}

func refinedConjunction(fl *pool.FreeList[[]byte], n int) {
	b, ok := fl.Get()
	if !ok && n > 0 {
		return // ok is false on the true edge of !ok && n > 0
	}
	if !ok {
		return
	}
	fl.Put(b)
}

// --- ownership transfers ---

type holder struct{ pkt *fiber.Packet }

func transferViaField(p *fiber.Pool, h *holder) {
	pkt := p.GetPacket()
	h.pkt = pkt // ok: ownership moved into the field
}

func transferViaReturn(p *fiber.Pool) *fiber.Packet {
	pkt := p.GetPacket()
	return pkt // ok: ownership flows to the caller
}

func transferViaCallee(p *fiber.Pool) {
	pkt := p.GetPacket()
	consume(pkt) // ok: the annotated callee assumes the obligation
}

func transferViaClosure(p *fiber.Pool, k *sim.Kernel) {
	pkt := p.GetPacket()
	k.After(sim.Microsecond, func() { pkt.Release() }) // ok: the capture moves ownership
}

func releaseViaAlias(fl *pool.FreeList[[]byte]) {
	b, ok := fl.Get()
	if !ok {
		return
	}
	c := b
	fl.Put(c) // ok: the alias releases the same slot
}

// badConsume claims the obligation but drops it on the error path; the
// seeded parameter is checked like a local acquire.
//
//nectar:takes-ownership pkt fixture bug, freed on the happy path only
func badConsume(pkt *fiber.Packet, bad bool) { // want `//nectar:takes-ownership parameter pkt is not released on every path`
	if bad {
		return
	}
	pkt.Release()
}

// --- double-release and use-after-release ---

func doubleRelease(p *fiber.Pool, bad bool) {
	pkt := p.GetPacket()
	pkt.Release()
	if bad {
		pkt.Release() // want `double release of pkt: a path to this Release has already released it`
	}
}

func releaseInDefer(p *fiber.Pool) {
	pkt := p.GetPacket()
	defer pkt.Release() // ok: the deferred release settles every path
	work(pkt)
}

func deferThenExplicit(p *fiber.Pool) {
	pkt := p.GetPacket()
	defer pkt.Release()
	pkt.Release() // want `double release of pkt: a deferred release of it is already pending`
}

func useAfterRelease(p *fiber.Pool) int {
	pkt := p.GetPacket()
	pkt.Release()
	return len(pkt.Frame) // want `use of pkt after release`
}

// --- discarded acquires ---

func discarded(fl *pool.FreeList[[]byte]) {
	fl.Get() // want `the pooled slot returned by \(\*pool\.FreeList\[T\]\)\.Get is discarded and leaks`
}

func discardedWithOk(fl *pool.FreeList[[]byte]) bool {
	_, ok := fl.Get() // want `the pooled slot returned by \(\*pool\.FreeList\[T\]\)\.Get is discarded and leaks`
	return ok
}

func deliberateDiscard(fl *pool.FreeList[[]byte]) {
	fl.Get() //nectar:leak-ok fixture: the popped slot is returned through a Peek alias
}

// --- timers: fire-and-forget is sanctioned, a bound timer owes a Stop ---

func fireAndForget(k *sim.Kernel) {
	k.After(sim.Microsecond, func() {}) // ok: an unbound timer is kernel-owned until it fires
}

func timerLeak(k *sim.Kernel, bad bool) {
	t := k.After(sim.Microsecond, func() {}) // want `timer t is not released on every path`
	if bad {
		return // abandons the bound timer without Stop
	}
	t.Stop()
}

func timerStopped(k *sim.Kernel) {
	t := k.After(sim.Microsecond, func() {})
	t.Stop() // ok
}

// --- //nectar:leak-ok waivers ---

func waivedLeak(p *fiber.Pool, bad bool) {
	pkt := p.GetPacket() //nectar:leak-ok fixture: sentinel packet stranded on purpose
	if bad {
		return
	}
	pkt.Release()
}

// wholeFunctionWaiver strands its acquire by design; the doc-comment
// directive covers the whole body.
//
//nectar:leak-ok fixture: every acquire in this function is a sentinel
func wholeFunctionWaiver(p *fiber.Pool) {
	pkt := p.GetPacket()
	work(pkt)
}

// --- //nectar:takes-ownership naming and placement ---

// wrongParam names a parameter that does not exist.
//
/* want `//nectar:takes-ownership names "bogus", which is not a parameter or receiver of wrongParam` */ //nectar:takes-ownership bogus the fixture names a ghost parameter
func wrongParam(pkt *fiber.Packet) {
	pkt.Release()
}

func misplacedDirective(p *fiber.Pool) {
	//nectar:takes-ownership pkt a body comment transfers nothing (determinism reports the placement)
	pkt := p.GetPacket()
	pkt.Release()
}
