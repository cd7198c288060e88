// Package clock is outside the deterministic import-path set: wall
// clock is nobody's business here, so the walltime rule must stay silent
// (CLIs under cmd/ measure wall clock on purpose).
package clock

import "time"

func Elapsed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}
