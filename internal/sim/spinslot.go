package sim

// A spinning Proc owns one event slot in the arena, its spin slot,
// which holds its one pending event at a time: the end of its compute
// slice followed by its wake-up (SpinAfter), or its queued wake-up alone
// (Resume). The slot's key waits in Kernel.spins rather than the heap
// (the package doc, "Spin slots"), and dispatching it neither frees the
// slot nor takes one.

// spinEntry is the key of a Proc's pending spin slot, p.slot.
type spinEntry struct {
	at  Time
	seq uint64
	p   *Proc
}

// inSpins stands in an arena event's heapIdx while its key is in
// Kernel.spins rather than the heap.
const inSpins = -2

// SpinAfter is Kernel.After(d, fn) for a callback fn whose last act is
// p.ResumeInPlace(), such as the end of p's compute slice. While p is in
// a Spin, the event waits in p's spin slot rather than the heap, and
// runs end, which is fn without that last act, and then p's wake-up as
// ResumeInPlace would; a nil end queues the wake-up alone (Resume). The
// key takes its sequence number as schedule would, so the event's key,
// its Timer and every result are the same either way. The slot holds one
// event at a time; while it is taken, the event goes to the heap.
//
//nectar:hotpath
func (p *Proc) SpinAfter(d Duration, end, fn func()) Timer {
	k := p.k
	if p.spin == nil {
		return k.After(d, fn)
	}
	if p.slot < 0 {
		p.slot = k.newSlot()
	}
	e := &k.arena[p.slot]
	if e.heapIdx == inSpins {
		return k.After(d, fn)
	}
	k.seq++
	e.fn = end
	e.heapIdx = inSpins
	k.spinPush(k.now+Time(max(d, 0)), p)
	return Timer{k: k, slot: p.slot, gen: e.gen}
}

// spinPush queues p's spin slot at at under the sequence number just
// taken, after every key at or before at.
//
//nectar:hotpath
func (k *Kernel) spinPush(at Time, p *Proc) {
	k.spins = append(k.spins, spinEntry{})
	i := len(k.spins) - 1
	for ; i > 0 && k.spins[i-1].at > at; i-- {
		k.spins[i] = k.spins[i-1]
	}
	k.spins[i] = spinEntry{at: at, seq: k.seq, p: p}
}

// freeSpinSlot gives a finished p's idle spin slot back to the arena.
func (p *Proc) freeSpinSlot() {
	if k := p.k; p.slot >= 0 && k.arena[p.slot].heapIdx != inSpins {
		k.freeSlot(p.slot)
		p.slot = -1
	}
}

// spinDone empties a spin slot's event once it has run or stopped,
// invalidating its Timer; the slot stays its Proc's.
//
//nectar:hotpath
func (k *Kernel) spinDone(e *event) {
	e.fn = nil
	e.gen++
	e.heapIdx = -1
}

// spinRemove drops the key of spin slot slot from Kernel.spins.
//
//nectar:hotpath
func (k *Kernel) spinRemove(slot int32) {
	for i := range k.spins {
		if k.spins[i].p.slot == slot {
			k.spinDelete(i)
			return
		}
	}
}

// spinDelete drops key i, keeping the others in order.
//
//nectar:hotpath
func (k *Kernel) spinDelete(i int) {
	n := len(k.spins) - 1
	for ; i < n; i++ {
		k.spins[i] = k.spins[i+1]
	}
	k.spins[n] = spinEntry{}
	k.spins = k.spins[:n]
}

// spinFirst reports whether the earliest spin slot comes before the heap's
// top, so that it is the next event.
//
//nectar:hotpath
func (k *Kernel) spinFirst() bool {
	if len(k.spins) == 0 {
		return false
	}
	if len(k.heap) == 0 {
		return true
	}
	s, h := &k.spins[0], &k.heap[0]
	return s.at < h.at || s.at == h.at && s.seq < h.seq
}

// stepSpin dispatches the earliest spin slot, which is the next event,
// and then every following one for as long as the next event due is a
// spin slot and no wake-up has stopped a driving Proc's loop (Proc.drive).
// A slot runs its callback, if it has one, and then its Proc's wake-up,
// in place or queued as ResumeInPlace would, straight into the Proc's
// step, without its wake event. A poll stream's slot runs by arithmetic
// (stepStreams).
//
//nectar:hotpath
func (k *Kernel) stepSpin() {
	for {
		if k.spins[0].p.stream != nil {
			k.stepStreams()
		} else {
			k.stepSlot()
			if k.woken != nil {
				return
			}
		}
		if !k.due() || !k.spinFirst() {
			return
		}
	}
}

// stepSlot dispatches the spin slot at the head of Kernel.spins.
//
//nectar:hotpath
func (k *Kernel) stepSlot() {
	top := k.spins[0]
	k.spinDelete(0)
	if top.at < k.now {
		panic("sim: time went backwards")
	}
	k.now = top.at
	k.steps++
	p := top.p
	e := &k.arena[p.slot]
	fn := e.fn
	k.spinDone(e)
	// A queued wake-up runs now. One that follows a callback is
	// ResumeInPlace's: in place, or queued in p's slot, now idle, when
	// another event shares the instant.
	if fn != nil {
		fn()
	}
	switch {
	case fn == nil:
		p.wakeSpin()
	case k.wakesInPlace():
		p.setResumed()
		k.seq++
		k.steps++
		p.wakeSpin()
	default:
		p.Resume()
	}
}
