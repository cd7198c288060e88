// Package uspos exercises the unitsafe analyzer against the real sim
// unit types: wall/virtual conversions, raw literals adopting a unit
// type, unit-dropping casts, and the sanctioned forms (zero, named
// constants, scalar scaling, the sim accessors).
package uspos

import (
	"time"

	"nectar/internal/sim"
)

// --- wall <-> virtual conversions ---

func wallIn(d time.Duration) sim.Duration {
	return sim.Duration(d) // want `conversion adopts wall-clock time\.Duration as sim\.Duration`
}

func wallInTime(d time.Duration) sim.Time {
	return sim.Time(d) // want `conversion adopts wall-clock time\.Duration as sim\.Time`
}

func wallOut(d sim.Duration) time.Duration {
	return time.Duration(d) // want `conversion republishes sim\.Duration as wall-clock time\.Duration`
}

// --- raw numeric literals adopting a unit type ---

func rawVar() {
	var d sim.Duration = 1500 // want `raw numeric literal 1500 adopts type sim\.Duration`
	_ = d
}

func rawArg(k *sim.Kernel, fn func()) {
	k.After(700, fn) // want `raw numeric literal 700 adopts type sim\.Duration`
}

func rawCompare(t sim.Time) bool {
	return t > 2500 // want `raw numeric literal 2500 adopts type sim\.Time`
}

func rawConv() sim.Duration {
	// An explicit conversion is still a magic number with an implicit
	// unit: the literal adopts the target type either way.
	return sim.Duration(2000) // want `raw numeric literal 2000 adopts type sim\.Duration`
}

// --- unit-dropping casts ---

func dropInt(t sim.Time) int64 {
	return int64(t) // want `conversion to int64 drops the sim\.Time unit`
}

func dropFloat(d sim.Duration) float64 {
	return float64(d) // want `conversion to float64 drops the sim\.Duration unit`
}

// --- sanctioned forms: silent ---

// Named constants are where unit-bearing literals belong.
const setupLookahead = 700 * sim.Nanosecond

func ok(d sim.Duration, t sim.Time) (sim.Duration, float64) {
	var zero sim.Time = 0 // the zero value, not a quantity
	_ = zero
	half := d / 2   // scalar scaling keeps the unit
	scaled := 3 * d // ditto
	m := 1500 * sim.Nanosecond
	w := setupLookahead
	_ = t.Micros() // the audited unit-dropping exits
	_ = d.Nanos()
	return half + scaled + m + w, t.Micros()
}

// Time<->Duration stays inside the virtual unit system.
func sameUnit(t sim.Time, d sim.Duration) sim.Time {
	return t + sim.Time(d)
}
