// Package tracearg holds the same unguarded-allocation offences as the
// ogpos fixture but lives outside the deterministic package set:
// obsgate must stay silent (tools may format trace output freely).
package tracearg

import (
	"fmt"

	"nectar/internal/obs"
	"nectar/internal/sim"
)

func unguarded(o *obs.Observer, n int) {
	o.InstantArg(0, obs.LayerFiber, "tx", fmt.Sprintf("seq=%d", n), 0, 0)
}

func metricAlloc(h *obs.Histogram, n int) {
	h.Observe(sim.Duration(len(fmt.Sprintf("%d", n))))
}
