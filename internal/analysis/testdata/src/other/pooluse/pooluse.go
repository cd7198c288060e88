// Package pooluse reproduces pltest's leaky shapes in a package outside
// the deterministic set: poollife must stay silent here. The misplaced
// directive is still reported, by the directive pass that checks
// placement in every package.
package pooluse

import "nectar/internal/hw/fiber"

func LeakOnErrorPath(p *fiber.Pool, bad bool) {
	pkt := p.GetPacket()
	if bad {
		return
	}
	pkt.Release()
}

func DoubleRelease(p *fiber.Pool) {
	pkt := p.GetPacket()
	pkt.Release()
	pkt.Release()
}

func MisplacedDirective(p *fiber.Pool) {
	/* want `//nectar:takes-ownership must be part of a function declaration's doc comment` */ //nectar:takes-ownership pkt misplaced in any package
	pkt := p.GetPacket()
	work(pkt)
}

func work(pkt *fiber.Packet) {}
