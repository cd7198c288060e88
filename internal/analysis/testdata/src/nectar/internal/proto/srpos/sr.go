// Package srpos exercises determinism's seededrand rule in a deterministic
// package (import path under nectar/internal/proto).
package srpos

import "math/rand"

func drop() bool {
	return rand.Float64() < 0.5 // want `global math/rand state \(rand\.Float64\)`
}

func pick(n int) int {
	return rand.Intn(n) // want `global math/rand state \(rand\.Intn\)`
}

func reseed() {
	rand.Seed(42) // want `global math/rand state \(rand\.Seed\)`
}

// Injected, seeded generators are the approved pattern: constructors and
// types are allowed, and methods on the injected *rand.Rand are local
// state, not global.
type faults struct {
	rng *rand.Rand
}

func newFaults(seed int64) *faults {
	return &faults{rng: rand.New(rand.NewSource(seed))}
}

func (f *faults) drop() bool {
	return f.rng.Float64() < 0.5
}
