// Package ogpos exercises the obsgate analyzer against the real obs
// emission surfaces: costly arguments outside the Tracing() guard,
// allocations escaping the guard through locals, the guard spellings
// the dataflow must recognize (negated early return, && chains, bool
// witnesses, CaptureLog() != nil), guard kills, closure inheritance,
// and the always-on metric rule.
package ogpos

import (
	"fmt"
	"strconv"

	"nectar/internal/obs"
	"nectar/internal/sim"
)

// --- direct costly arguments ---

func unguarded(o *obs.Observer, n int) {
	o.InstantArg(0, obs.LayerFiber, "tx", fmt.Sprintf("seq=%d", n), 0, 0) // want `obs trace InstantArg argument calls fmt\.Sprintf outside the o\.Tracing\(\) guard`
}

func guarded(o *obs.Observer, n int) {
	if o.Tracing() {
		o.InstantArg(0, obs.LayerFiber, "tx", fmt.Sprintf("seq=%d", n), 0, 0) // ok: dominated by the guard
	}
}

func cheapUnguarded(o *obs.Observer, seq uint64) {
	o.Instant(0, obs.LayerFiber, "tx")            // ok: constant args are free
	o.InstantSeq(0, obs.LayerFiber, "tx", seq, 8) // ok: plain value args are free
}

func concatUnguarded(o *obs.Observer, who string) {
	o.InstantArg(0, obs.LayerDatalink, "rx", "from="+who, 0, 0) // want `obs trace InstantArg argument concatenates strings outside the o\.Tracing\(\) guard`
}

func strconvUnguarded(o *obs.Observer, n int) {
	o.InstantArg(0, obs.LayerDatalink, "rx", strconv.Itoa(n), 0, 0) // want `obs trace InstantArg argument calls strconv\.Itoa outside the o\.Tracing\(\) guard`
}

// --- guard spellings ---

func earlyReturn(o *obs.Observer, n int) {
	if !o.Tracing() {
		return
	}
	o.InstantArg(0, obs.LayerFiber, "tx", fmt.Sprintf("seq=%d", n), 0, 0) // ok: the false edge returned
}

func andChain(o *obs.Observer, verbose bool, n int) {
	if verbose && o.Tracing() {
		o.InstantArg(0, obs.LayerFiber, "tx", fmt.Sprintf("seq=%d", n), 0, 0) // ok: && keeps both conjuncts
	}
}

func orChain(o *obs.Observer, verbose bool, n int) {
	if verbose || o.Tracing() {
		// The true edge of an || proves neither disjunct.
		o.InstantArg(0, obs.LayerFiber, "tx", fmt.Sprintf("seq=%d", n), 0, 0) // want `obs trace InstantArg argument calls fmt\.Sprintf outside the o\.Tracing\(\) guard`
	}
}

func boolWitness(o *obs.Observer, n int) {
	on := o.Tracing()
	if on {
		o.InstantArg(0, obs.LayerFiber, "tx", fmt.Sprintf("seq=%d", n), 0, 0) // ok: on witnesses the guard
	}
}

func wrongReceiver(a, b *obs.Observer, n int) {
	if a.Tracing() {
		b.InstantArg(0, obs.LayerFiber, "tx", fmt.Sprintf("seq=%d", n), 0, 0) // want `obs trace InstantArg argument calls fmt\.Sprintf outside the b\.Tracing\(\) guard`
	}
}

func guardKilled(o, p *obs.Observer, n int) {
	if o.Tracing() {
		o = p
		o.InstantArg(0, obs.LayerFiber, "tx", fmt.Sprintf("seq=%d", n), 0, 0) // want `obs trace InstantArg argument calls fmt\.Sprintf outside the o\.Tracing\(\) guard`
	}
}

// --- allocations escaping the guard through locals ---

func taintEscapes(o *obs.Observer, n int) {
	arg := fmt.Sprintf("seq=%d", n) // built even when tracing is off
	if o.Tracing() {
		o.InstantArg(0, obs.LayerFiber, "tx", arg, 0, 0) // want `obs trace InstantArg argument was built by an allocating expression outside the o\.Tracing\(\) guard`
	}
}

func taintGuarded(o *obs.Observer, n int) {
	if o.Tracing() {
		arg := fmt.Sprintf("seq=%d", n)
		o.InstantArg(0, obs.LayerFiber, "tx", arg, 0, 0) // ok: definition was dominated too
	}
}

func taintOverwritten(o *obs.Observer, n int, cheap string) {
	arg := fmt.Sprintf("seq=%d", n)
	arg = cheap                                      // the costly definition is dead
	o.InstantArg(0, obs.LayerFiber, "tx", arg, 0, 0) // ok: emission sees the cheap binding
}

// --- closures inherit the fact at their creation point ---

func closureInGuard(o *obs.Observer, run func(func()), n int) {
	if o.Tracing() {
		run(func() {
			o.InstantArg(0, obs.LayerFiber, "tx", fmt.Sprintf("seq=%d", n), 0, 0) // ok: created under the guard
		})
	}
}

func closureUnguarded(o *obs.Observer, run func(func()), n int) {
	run(func() {
		o.InstantArg(0, obs.LayerFiber, "tx", fmt.Sprintf("seq=%d", n), 0, 0) // want `obs trace InstantArg argument calls fmt\.Sprintf outside the o\.Tracing\(\) guard`
	})
}

// --- packet capture ---

func captureGuarded(o *obs.Observer, frame []byte, id int) {
	if o.CaptureLog() != nil {
		o.CapturePacket("cab"+strconv.Itoa(id), frame, false, false) // ok: capture guard
	}
}

func captureViaTracing(o *obs.Observer, frame []byte, id int) {
	if o.Tracing() {
		o.CapturePacket("cab"+strconv.Itoa(id), frame, false, false) // ok: tracing implies a live observer
	}
}

func captureUnguarded(o *obs.Observer, frame []byte, id int) {
	o.CapturePacket("cab"+strconv.Itoa(id), frame, false, false) // want `obs capture CapturePacket argument concatenates strings outside the o\.CaptureLog\(\) != nil guard`
}

// --- metrics are always on: no guard excuses an allocating argument ---

func metricAlloc(h *obs.Histogram, n int) {
	h.Observe(sim.Duration(len(fmt.Sprintf("%d", n)))) // want `obs metric Observe has no disabled state, but its argument calls fmt\.Sprintf`
}

func metricClean(c *obs.Counter, h *obs.Histogram, d sim.Duration) {
	c.Inc()                         // ok
	h.Observe(d)                    // ok
	h.Observe(64 * sim.Microsecond) // ok
}
