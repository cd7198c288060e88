package sim

// When reports the virtual time at which the timer will fire. For a zero,
// stopped, or already-fired timer it returns the zero Time. Only the
// tests read it.
func (t Timer) When() Time {
	if !t.Pending() {
		return 0
	}
	if i := t.k.arena[t.slot].heapIdx; i != inSpins {
		return t.k.heap[i].at
	}
	for _, s := range t.k.spins {
		if s.p.slot == t.slot {
			return s.at
		}
	}
	return 0
}
