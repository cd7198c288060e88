// Package cmpos exercises the costmodel analyzer against the real
// transmit sinks: uncharged direct sends, uncharged chains (flagged at
// the entry point only), charged paths (field reads, derived cost
// methods, charges paid by the enclosing function around a deferred
// closure), //nectar:free-hop waivers, and sink method values escaping
// into variables.
package cmpos

import (
	"nectar/internal/hw/fiber"
	"nectar/internal/hw/vme"
	"nectar/internal/model"
	"nectar/internal/sim"
)

// --- uncharged paths ---

func sendUncharged(l *fiber.Link, p *fiber.Packet) { // want `cmpos\.sendUncharged reaches fiber transmit Link\.Send \(cmpos\.sendUncharged\) without charging any model\.CostModel latency`
	l.Send(p)
}

func reserveUncharged(b *vme.Bus) { // want `cmpos\.reserveUncharged reaches VME transfer Bus\.Reserve \(cmpos\.reserveUncharged\) without charging`
	b.Reserve(16)
}

// The chain is flagged once, at its entry point; forward is inside the
// region but carries no diagnostic of its own.
func entry(l *fiber.Link, p *fiber.Packet) { // want `cmpos\.entry reaches fiber transmit Link\.Send \(cmpos\.entry -> cmpos\.forward\) without charging`
	forward(l, p)
}

func forward(l *fiber.Link, p *fiber.Packet) {
	l.Send(p)
}

// A sink method value escaping into a variable is a touch: whoever
// invokes it later transmits on this function's behalf.
func sendViaValue(l *fiber.Link) { // want `cmpos\.sendViaValue reaches fiber transmit Link\.SendAt \(cmpos\.sendViaValue\) without charging`
	tx := l.SendAt
	_ = tx
}

// --- charged paths ---

func sendCharged(cost *model.CostModel, k *sim.Kernel, l *fiber.Link, p *fiber.Packet) {
	t := k.Now() + sim.Time(cost.DatalinkProcess)
	k.At(t, func() { l.SendAt(p, t) }) // ok: the root charged before deferring
}

func sendChargedDerived(cost *model.CostModel, k *sim.Kernel, l *fiber.Link, p *fiber.Packet) {
	t := k.Now() + sim.Time(cost.FiberTime(p.WireLen()))
	l.SendAt(p, t) // ok: derived cost methods charge too
}

func callsCharged(cost *model.CostModel, k *sim.Kernel, l *fiber.Link, p *fiber.Packet) {
	sendCharged(cost, k, l, p) // ok: the path below charges
}

// --- waivers ---

// transmitWaived is a pure forwarding step.
//
//nectar:free-hop fixture: callers charge DatalinkProcess before invoking
func transmitWaived(l *fiber.Link, p *fiber.Packet) {
	l.Send(p)
}

func callsWaived(l *fiber.Link, p *fiber.Packet) {
	transmitWaived(l, p) // ok: the waived hop absorbs the region
}

// --- directive placement ---

func misplacedWaiver(l *fiber.Link, p *fiber.Packet) { // want `cmpos\.misplacedWaiver reaches fiber transmit Link\.Send`
	//nectar:free-hop fixture: not a doc comment (waives nothing; determinism reports the placement)
	l.Send(p)
}
