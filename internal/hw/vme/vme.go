// Package vme models the VME backplane connecting a host to its CAB
// (paper §2.2, §6). Host↔CAB bytes cross it by programmed I/O: each
// 32-bit word read or write costs about 1 µs (§6.1), so data moves at
// about 30 Mbit/s (§6.3), the bottleneck that caps host-to-host
// throughput in Figure 8. The board's block DMA has no caller and is not
// modelled.
//
// The bus is a serially-reusable resource: accesses occupy it
// exclusively, so a host polling loop contends with every other access
// in flight, as on the real backplane. A poll loop that runs as a poll
// stream (hostif's WaitPoll) reads only while the bus is otherwise
// idle, so its words are booked when the stream settles (Defer, Book),
// and any other access, or a snapshot, settles it first.
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
	// lazy is a poll stream whose words the bus has not booked yet
	// (Defer); any other use of the bus settles it first.
	lazy *sim.Stream

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
	b.lazy.Settle()
	emit(obs.LayerVME, "pio_words", b.name, b.pioWords)
	// No transfer uses block DMA, so dma_bytes reads 0; the row stays for the snapshot goldens and nectar-perf.
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
	b.lazy.Settle()
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

// Word reports the bus time of one word when the bus is free now, and
// whether it is: a poll loop whose every word finds it free reads one
// word per Word, and can stream (Defer).
func (b *Bus) Word() (sim.Duration, bool) {
	return b.cost.VMEWord, b.freeAt <= b.k.Now()
}

// Defer leaves the words of poll stream st unbooked while it runs: any
// other Reserve, and Gauges, settle it first, and its owner books them
// (Book).
func (b *Bus) Defer(st *sim.Stream) { b.lazy = st }

// Book books words words of a settled poll stream, the last of which ends
// at end.
func (b *Bus) Book(words uint64, end sim.Time) {
	b.lazy = nil
	if words > 0 {
		b.pioWords += words
		b.freeAt = end
	}
}

// PIOBytes is PIO for a byte count, rounded up to whole words.
func (b *Bus) PIOBytes(t *threads.Thread, n int) {
	b.PIO(t, (n+3)/4)
}
