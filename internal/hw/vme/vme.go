// Package vme models the VME backplane connecting a host to its CAB
// (paper §2.2, §6). The bus supports programmed I/O — each 32-bit word
// read or write costs about 1 µs (§6.1) — and block DMA transfers at about
// 30 Mbit/s (§6.3), which is the bottleneck that caps host-to-host
// throughput in Figure 8.
//
// The bus is a serially-reusable resource: PIO accesses and DMA bursts
// occupy it exclusively, so a host polling loop contends with an in-flight
// block transfer, as on the real backplane.
package vme

import (
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// Bus is one VME backplane segment between a host and a CAB.
type Bus struct {
	k      *sim.Kernel
	cost   *model.CostModel
	name   string
	freeAt sim.Time

	pioWords uint64
	dmaBytes uint64
}

// New creates a bus.
func New(k *sim.Kernel, cost *model.CostModel, name string) *Bus {
	b := &Bus{k: k, cost: cost, name: name}
	obs.Ensure(k).Metrics().Register(b)
	return b
}

// Gauges reports the words and bytes the bus has moved (obs.Source).
func (b *Bus) Gauges(emit func(layer obs.Layer, name, scope string, v uint64)) {
	emit(obs.LayerVME, "pio_words", b.name, b.pioWords)
	emit(obs.LayerVME, "dma_bytes", b.name, b.dmaBytes)
}

// Name returns the bus name.
func (b *Bus) Name() string { return b.name }

// PIO performs words programmed-I/O accesses from the calling thread,
// blocking it for the bus-wait plus transfer time. Used for host loads and
// stores to mapped CAB memory.
func (b *Bus) PIO(t *threads.Thread, words int) {
	if words <= 0 {
		return
	}
	t.Compute(b.Reserve(words))
}

// Reserve books the bus for words programmed-I/O accesses starting now
// and returns the bus-wait plus transfer time the accessing thread must
// compute. PIO is Reserve followed by that Compute; a Spin step calls
// Reserve and StartCompute itself. words must be positive.
func (b *Bus) Reserve(words int) sim.Duration {
	now := b.k.Now()
	wait := sim.Duration(0)
	if b.freeAt > now {
		wait = sim.Duration(b.freeAt - now)
	}
	d := sim.Duration(words) * b.cost.VMEWord
	b.freeAt = now + sim.Time(wait+d)
	b.pioWords += uint64(words)
	return wait + d
}

// PIOBytes is PIO for a byte count, rounded up to whole words.
func (b *Bus) PIOBytes(t *threads.Thread, n int) {
	b.PIO(t, (n+3)/4)
}

// DMA reserves the bus for a block transfer of n bytes and calls done when
// the transfer completes. The reservation includes the DMA setup cost.
// Callable from any context; the transfer proceeds without CPU involvement.
func (b *Bus) DMA(n int, done func()) {
	now := b.k.Now()
	start := now
	if b.freeAt > start {
		start = b.freeAt
	}
	end := start + sim.Time(b.cost.VMEDMASetup+b.cost.VMEDMATime(n))
	b.freeAt = end
	b.dmaBytes += uint64(n)
	b.k.At(end, done)
}

// FreeAt returns when the bus next becomes free.
func (b *Bus) FreeAt() sim.Time { return b.freeAt }

// Stats returns cumulative (PIO words, DMA bytes).
func (b *Bus) Stats() (pioWords, dmaBytes uint64) { return b.pioWords, b.dmaBytes }
