// Package wtpos exercises determinism's walltime rule in a deterministic
// package (import path under nectar/internal/sim).
package wtpos

import "time"

func now() time.Time {
	return time.Now() // want `wall-clock time\.Now in deterministic package`
}

func sleeper() {
	time.Sleep(time.Millisecond) // want `wall-clock time\.Sleep`
}

func armed() {
	_ = time.NewTimer(time.Second) // want `wall-clock time\.NewTimer`
	_ = time.Tick(time.Second)     // want `wall-clock time\.Tick`
	_ = time.After(time.Second)    // want `wall-clock time\.After`
}

// Virtual-time arithmetic on time.Duration constants is fine: only the
// clock-reading functions are forbidden.
func durations() time.Duration {
	return 3 * time.Millisecond
}

// measured is measurement code: a function-level directive excuses the
// whole body.
//
//nectar:allow-walltime compares harness wall clock against virtual time
func measured() time.Duration {
	t0 := time.Now()
	time.Sleep(time.Millisecond)
	return time.Since(t0)
}

func trailing() time.Time {
	return time.Now() //nectar:allow-walltime calibration probe outside simulation
}

func preceding() {
	//nectar:allow-walltime sleep runs outside any kernel
	time.Sleep(time.Millisecond)
}

// wrongLine shows a directive too far from the call to cover it: a
// directive covers its own line and the next one only.
func wrongLine() {
	//nectar:allow-walltime stranded two lines above

	time.Sleep(time.Millisecond) // want `wall-clock time\.Sleep`
}
