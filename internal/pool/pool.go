// Package pool provides the one free-list shape the simulator kept
// reimplementing: a single-threaded LIFO of reusable values.
//
// Everything on the simulated fast path lives inside one simulation
// kernel, which runs exactly one goroutine at a time, so the list needs
// no locks; what it needs is to be allocation-free in steady state and
// to drop its reference to a slot when the slot is vacated (so pooled
// values do not pin dead buffers for the GC). Both properties are easy
// to get subtly wrong when the pattern is hand-rolled — the pre-refactor
// copies in ip (header and span scratch), cab (receive descriptors) and
// fiber (frames and packets) each re-derived them independently.
package pool

// FreeList is a LIFO free list of T. The zero value is an empty list
// ready for use. It is not safe for concurrent use; callers are
// single-threaded by construction (one kernel = one running goroutine).
type FreeList[T any] struct {
	items []T

	// check, when non-nil, is the debug double-Put guard installed by
	// SetCheck: Put scans the pooled slots with it and panics when v is
	// already pooled. nil (the default) keeps Put O(1).
	check func(a, b T) bool
}

// SetCheck installs eq as a debug guard against double-Put: every
// subsequent Put scans the pooled slots with eq and panics if v is
// already in the list. A double Put is the mirror image of a leak —
// the same value gets handed to two later Gets, and the two owners
// silently corrupt each other's buffer — and it manifests far from the
// offending release. The scan is O(n) per Put, so the guard is for
// tests and debug builds; production paths leave it unset. Pass nil to
// remove the guard.
//
//nectar:api safety check: the double-Put guard the pool and protocol tests switch on
func (f *FreeList[T]) SetCheck(eq func(a, b T) bool) { f.check = eq }

// Put pushes v onto the list. The append is to a struct field, so its
// growth is amortized across the pool's lifetime (the backing array is
// reused once warmed up).
//
//nectar:hotpath
func (f *FreeList[T]) Put(v T) {
	if f.check != nil {
		for _, old := range f.items {
			if f.check(old, v) {
				panic("pool: double Put of a pooled value")
			}
		}
	}
	f.items = append(f.items, v)
}

// Get pops the most recently Put value. The vacated slot is zeroed so
// the list does not keep the value reachable. ok is false when empty.
//
//nectar:hotpath
func (f *FreeList[T]) Get() (v T, ok bool) {
	n := len(f.items)
	if n == 0 {
		return v, false
	}
	v = f.items[n-1]
	var zero T
	f.items[n-1] = zero
	f.items = f.items[:n-1]
	return v, true
}

// Peek returns the value Get would pop without popping it. Callers use
// it to test suitability (e.g. a buffer's capacity) before committing
// to the pop.
//
//nectar:hotpath
func (f *FreeList[T]) Peek() (v T, ok bool) {
	n := len(f.items)
	if n == 0 {
		return v, false
	}
	return f.items[n-1], true
}

// Len reports how many values are pooled.
func (f *FreeList[T]) Len() int { return len(f.items) }
