package sim

// A poll stream is a spinning Proc whose step has settled into a loop of
// two computes, a then b, that nothing but its own events can affect,
// such as a host polling a word in CAB memory (the package doc, "Poll
// streams"). The kernel dispatches its events by arithmetic: its pending
// key stays in the Proc's spin slot in Kernel.spins, and the slot's event
// is marked inStream rather than holding a callback.

// Stream is the state of one poll stream. Its owner holds it by value and
// sets it up once (Init), so starting a stream allocates nothing.
type Stream struct {
	p     *Proc // the streaming Proc, nil while the stream does not run
	seg   [2]Duration
	end   func() // the slice end SpinAfter would arm, for Settle
	owner StreamOwner
	n     uint64 // computes started since the stream began, the pending one included
	ended bool   // the last compute's slice has ended and its wake-up is queued
	start Time   // when the last compute started
}

// A StreamOwner brings the state of a loop that streamed up to date when
// its stream stops.
type StreamOwner interface {
	// Settled is called once the stream has stopped, in the state the
	// loop would be in: its last compute (Last) is a slice that is still
	// pending, or one that has ended and whose wake-up is queued. Every
	// compute before it is done. The owner charges them, restores the
	// loop's phase and, for a pending slice, its Timer (Timer).
	Settled(s *Stream)
}

// inStream stands in an arena event's heapIdx while its Proc's key in
// Kernel.spins is a poll stream's.
const inStream = -3

// Init sets s up for owner.
func (s *Stream) Init(owner StreamOwner) { s.owner = owner }

// Stream starts a poll stream of p's loop of computes a then b, where
// the loop's step, running with p current, would next call
// StartCompute(a), and after its pending slice end, end. It performs that
// compute as the step would, in place or as a slice in p's spin slot
// under the key SpinAfter would give it, and then every later one, and
// each wake-up, as Kernel.stepSpin would, until the stream settles. The
// step then returns false. Stream reports false, and starts nothing,
// when a or b is not positive, p is not current in a Spin, or p's spin
// slot is taken; the caller must also know that nothing but an observer
// (Settle) can change what its step would do.
//
//nectar:hotpath
func (p *Proc) Stream(s *Stream, a, b Duration, end func()) bool {
	k := p.k
	if a <= 0 || b <= 0 || p.spin == nil || k.current != p {
		return false
	}
	if p.slot < 0 {
		p.slot = k.newSlot()
	}
	e := &k.arena[p.slot]
	if e.heapIdx == inSpins {
		return false
	}
	e.fn = nil
	e.heapIdx = inStream
	p.stream = s
	s.p, s.seg, s.end, s.n, s.ended = p, [2]Duration{a, b}, end, 0, false
	var at Time
	k.now, at = s.computes(k.now, k.streamBound())
	k.seq++
	k.spinPush(at, p)
	return true
}

// Timer returns the Timer of the stream's pending slice, as SpinAfter
// returned it. While the stream runs, its Pending and Stop settle the
// stream first.
func (s *Stream) Timer() Timer {
	k := s.p.k
	return Timer{k: k, slot: s.p.slot, gen: k.arena[s.p.slot].gen}
}

// Settle stops the stream if it runs: its pending event becomes the
// Proc's spin slot again, under the same key, and the owner is told
// (StreamOwner.Settled). A nil stream is one that does not run.
//
//nectar:hotpath
func (s *Stream) Settle() {
	if s != nil && s.p != nil {
		s.p.k.settle(s)
	}
}

// Settle stops p's poll stream, if it has one (Stream.Settle).
//
//nectar:hotpath
func (p *Proc) Settle() {
	if s := p.stream; s != nil {
		p.k.settle(s)
	}
}

// Done reports the compute time of the stream's computes that are done:
// every one but its last, and the last too once its slice has ended.
func (s *Stream) Done() Duration {
	c := s.n - 1
	if s.ended {
		c++
	}
	return Duration(c/2)*(s.seg[0]+s.seg[1]) + Duration(c%2)*s.seg[0]
}

// Compute reports the stream's compute i: a for 0, b for 1.
func (s *Stream) Compute(i int) Duration { return s.seg[i] }

// Started reports how many of the stream's i computes (0 for a, 1 for b)
// have started.
func (s *Stream) Started(i int) uint64 { return (s.n + 1 - uint64(i)) / 2 }

// Last reports the stream's last compute: which one it is (0 for a, 1
// for b), when it started, and whether its slice is still pending (else
// it has ended and the wake-up is queued).
func (s *Stream) Last() (i int, start Time, pending bool) {
	return int((s.n - 1) & 1), s.start, !s.ended
}

// settle turns s back into its Proc's spin slot: a pending slice end
// with s.end as its callback, or a queued wake-up. A queued wake-up's
// Timer no longer reads as pending, as after a slice end.
func (k *Kernel) settle(s *Stream) {
	p := s.p
	p.stream = nil
	e := &k.arena[p.slot]
	e.heapIdx = inSpins
	if s.ended {
		e.gen++
		p.state = procResumed
	} else {
		e.fn = s.end
	}
	s.owner.Settled(s)
	s.p, s.end = nil, nil
}

// settleSlot settles the stream whose Proc owns spin slot slot.
func (k *Kernel) settleSlot(slot int32) {
	for i := range k.spins {
		if p := k.spins[i].p; p.slot == slot {
			p.Settle()
			return
		}
	}
}

// streamBound is the earliest time at which a stream that starts finds
// an event in its way: the loop's bound or the earliest queued event. A
// compute of d from now advances in place exactly when now+d is below it
// (Advance, with the Proc current), and a wake-up due now runs in place
// when now is (wakesInPlace); stepStreams keeps the same bound.
//
//nectar:hotpath
func (k *Kernel) streamBound() Time {
	b := k.limit
	if len(k.heap) > 0 && k.heap[0].at < b {
		b = k.heap[0].at
	}
	if len(k.spins) > 0 && k.spins[0].at < b {
		b = k.spins[0].at
	}
	return b
}

// stepStreams dispatches the poll stream whose key is at the head of
// Kernel.spins, the next event, and then every stream event after it for
// as long as one is the next event due. Each is a slice end, then the
// wake-up in place or queued, or a queued wake-up, and a wake-up runs
// the step's computes on; the key of the stream's next event replaces the
// head. While only streams dispatch, nothing else reads the kernel, and
// the heap's top, the loop's bound, the current Proc and the kernel's
// failure stay put, so the clock and the counters stay in locals.
//
//nectar:hotpath
func (k *Kernel) stepStreams() {
	top := heapEntry{at: k.limit} // the heap's top, or the loop's bound
	if len(k.heap) > 0 && k.heap[0].at < k.limit {
		top = k.heap[0]
	}
	sp := k.spins
	now, seq, steps := k.now, k.seq, k.steps
	inPlace := k.current == nil // a wake-up due now may run in place
	head := sp[0]
	if head.at < now {
		panic("sim: time went backwards")
	}
	for {
		s := head.p.stream
		now = head.at
		steps++
		bound := top.at
		if len(sp) > 1 && sp[1].at < bound {
			bound = sp[1].at
		}
		at := now
		switch {
		case s.ended:
			s.ended = false
			now, at = s.computes(now, bound)
			seq++
		case !inPlace || now >= bound:
			seq++
			s.ended = true
		default:
			seq += 2
			steps++
			now, at = s.computes(now, bound)
		}
		// The new key is the latest: it stays at the head only when it
		// comes before the second key's time.
		head.at, head.seq = at, seq
		if len(sp) == 1 || at < sp[1].at {
			sp[0].at, sp[0].seq = at, seq
		} else {
			i := 0
			for ; i+1 < len(sp) && sp[i+1].at <= at; i++ {
				sp[i] = sp[i+1]
			}
			sp[i] = head
			if head = sp[0]; head.p.stream == nil {
				break
			}
		}
		if !entryLess(heapEntry{at: head.at, seq: head.seq}, top) {
			break
		}
	}
	k.now, k.seq, k.steps = now, seq, steps
}

// computes runs the step's computes from now, each in place while it ends
// below bound, and reports the start and the end of the first that does
// not, which becomes a slice under the next sequence number. Whole cycles
// of a then b that end below bound go in one jump; after it, a b never
// fits.
//
//nectar:hotpath
func (s *Stream) computes(now, bound Time) (start, end Time) {
	a, b := Time(s.seg[0]), Time(s.seg[1])
	n := s.n + 1
	if n&1 == 0 { // b is next
		if b >= bound-now {
			s.n, s.start = n, now
			return now, now + b
		}
		now += b
		n++
	}
	if a+b < bound-now {
		m := (bound - 1 - now) / (a + b)
		now += m * (a + b)
		n += 2 * uint64(m)
	}
	if a < bound-now {
		now += a
		n++
		a = b
	}
	s.n, s.start = n, now
	return now, now + a
}
