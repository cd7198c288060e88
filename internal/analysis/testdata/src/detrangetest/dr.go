// Package detrangetest exercises determinism's detrange rule against the
// real nectar/internal/obs and nectar/internal/sim emission APIs.
package detrangetest

import (
	"sort"

	"nectar/internal/obs"
	"nectar/internal/sim"
)

func traceFromMap(o *obs.Observer, m map[int]int) {
	for node := range m {
		o.Instant(node, obs.LayerMailbox, "flush") // want `obs\.Instant emits order-sensitive output inside a range over a map`
	}
}

func metricsFromMap(c *obs.Counter, m map[string]uint64) {
	for range m {
		c.Inc() // want `obs\.Inc emits order-sensitive output`
	}
}

func argsFromMap(o *obs.Observer, m map[string]bool) {
	for name := range m {
		if m[name] {
			o.InstantArg(0, obs.LayerMailbox, "put", name, 0, 0) // want `obs\.InstantArg emits order-sensitive output`
		}
	}
}

func sizedOutboxFromMap(src, dst *sim.Domain, pending map[sim.Time]func()) {
	for at, fn := range pending {
		src.SendSized(dst, at, 64, fn) // want `sim\.SendSized emits order-sensitive output`
	}
}

func captureFromMap(o *obs.Observer, frames map[string][]byte) {
	for link, f := range frames {
		o.CapturePacket(link, f, false, false) // want `obs\.CapturePacket emits order-sensitive output`
	}
}

// sortedThenEmit is the approved shape: collect, sort, then range the
// slice (cf. internal/obs/merge.go).
func sortedThenEmit(o *obs.Observer, m map[int]int) {
	nodes := make([]int, 0, len(m))
	for node := range m {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		o.Instant(node, obs.LayerMailbox, "flush")
	}
}

// accumulate only reads through the map: commutative folds are
// order-insensitive and allowed.
func accumulate(m map[string]uint64) uint64 {
	var sum uint64
	for _, v := range m {
		sum += v
	}
	return sum
}
