package sim

import "container/heap"

// BaselineQueue is the kernel's pre-overhaul event queue — a boxed
// container/heap binary heap with one allocation per scheduled event and
// lazy (mark-dead) cancellation. It lives only in tests: it is the
// ordering oracle of TestOrderMatchesBaseline, and the
// Baseline* benchmarks measure the live 4-ary arena queue against it so
// the speedup stays reproducible. It is not used by the kernel.
type BaselineQueue struct {
	now   Time
	seq   uint64
	queue baselineHeap
}

// baselineEvent mirrors the old kernel's per-event allocation.
type baselineEvent struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
	idx  int
}

type baselineHeap []*baselineEvent

func (h baselineHeap) Len() int { return len(h) }
func (h baselineHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h baselineHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *baselineHeap) Push(x any) {
	e := x.(*baselineEvent)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *baselineHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// BaselineTimer is the old *Timer: a heap-allocated handle whose Stop marks
// the event dead in place, leaving it resident until popped.
type BaselineTimer struct{ e *baselineEvent }

// Stop marks the event cancelled (lazily removed at pop, as before).
func (t *BaselineTimer) Stop() bool {
	if t == nil || t.e == nil || t.e.dead || t.e.fn == nil {
		return false
	}
	t.e.dead = true
	return true
}

// Now returns the queue's virtual time.
func (q *BaselineQueue) Now() Time { return q.now }

// After schedules fn to run d from now.
func (q *BaselineQueue) After(d Duration, fn func()) *BaselineTimer {
	if d < 0 {
		d = 0
	}
	q.seq++
	e := &baselineEvent{at: q.now + Time(d), seq: q.seq, fn: fn}
	heap.Push(&q.queue, e)
	return &BaselineTimer{e: e}
}

// Step pops and executes one live event, skipping cancelled ones. It
// reports false when the queue is empty.
func (q *BaselineQueue) Step() bool {
	for len(q.queue) > 0 {
		e := heap.Pop(&q.queue).(*baselineEvent)
		if e.dead {
			continue
		}
		q.now = e.at
		fn := e.fn
		e.fn = nil
		fn()
		return true
	}
	return false
}

// Drain steps until the queue is empty.
func (q *BaselineQueue) Drain() {
	for q.Step() {
	}
}
