package main

import (
	"iter"
	"runtime"
	"time"
)

// The host's speed drifts. On a shared VM, neighbours slow the simulator
// by up to 2x for stretches of seconds to minutes, while a pure-compute
// loop (sha256 in L1) barely moves; what suffers is the simulator's kind
// of work, goroutine handoffs and fresh allocations. No choice of
// repetitions within a 20 s run filters out a slow stretch that covers
// all of it.
//
// So every unit process also times a fixed reference kernel that does the
// same kind of work, once before each unit, and the harness reports host
// times in reference seconds: a phase's wall time × refNominalNS ÷ the
// process's median kernel time. Seconds are then those of a host on which
// the kernel takes refNominalNS, about its time on a quiet 2-core Xeon VM.
//
// On such a VM, 8-minute recordings of the same rtt and stream units, cut
// into 20 s windows, varied by 9-11% between windows (interquartile range
// ÷ median) in wall time and by 4.5-6% in reference time. A channel
// ping-pong between two goroutines tracked the units a little better
// (4-5%), but nectar-vet allows go statements only in the simulator's
// audited concurrency code; this kernel's handoffs are iter.Pull coroutine
// switches, which, like the simulator's Procs, never run at the same time
// as their caller. The kernel is the benchmark's own code, so a change to
// the simulator cannot speed it up or slow it down.
const (
	refNominalNS = 500_000
	refEvents    = 1500
)

// refEvent is one event of the kernel's queue.
type refEvent struct {
	at   int64
	fire func(at int64)
}

// refNode is one link of the kernel's process's list, the size of a
// small event.
type refNode struct {
	next *refNode
	_    [6]uint64
}

// refSink keeps the kernel's list reachable until it has been walked.
var refSink *refNode

// refKernel runs the reference kernel once and returns its wall time. It
// is a discrete-event simulation in miniature: a binary heap of events
// whose closures each resume a process (an iter.Pull coroutine that
// allocates a node onto its list) and schedule a follow-up event at a
// pseudo-random delay, for refEvents events; then a walk of the list.
func refKernel() int64 {
	start := time.Now()
	resume, stop := iter.Pull(func(yield func(*refNode) bool) {
		var list *refNode
		for {
			list = &refNode{next: list}
			if !yield(list) {
				return
			}
		}
	})
	var queue []*refEvent
	push := func(e *refEvent) {
		queue = append(queue, e)
		for i := len(queue) - 1; i > 0; {
			parent := (i - 1) / 2
			if queue[parent].at <= queue[i].at {
				break
			}
			queue[parent], queue[i] = queue[i], queue[parent]
			i = parent
		}
	}
	pop := func() *refEvent {
		e := queue[0]
		n := len(queue) - 1
		queue[0] = queue[n]
		queue = queue[:n]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < n && queue[l].at < queue[m].at {
				m = l
			}
			if r < n && queue[r].at < queue[m].at {
				m = r
			}
			if m == i {
				break
			}
			queue[m], queue[i] = queue[i], queue[m]
			i = m
		}
		return e
	}
	var list *refNode
	rng := uint64(1)
	var fire func(at int64)
	fire = func(at int64) {
		list, _ = resume()
		rng = rng*6364136223846793005 + 1442695040888963407
		push(&refEvent{at: at + int64(rng>>54), fire: fire})
	}
	for i := 0; i < 16; i++ {
		push(&refEvent{at: int64(i), fire: fire})
	}
	for i := 0; i < refEvents; i++ {
		e := pop()
		e.fire(e.at)
	}
	stop()
	for p := list; p != nil; p = p.next {
		refSink = p
	}
	elapsed := time.Since(start).Nanoseconds()
	refSink = nil
	return elapsed
}

// refSpeed times the kernel n times and returns the host's speed relative
// to the reference, refNominalNS ÷ the median kernel time; multiplying a
// wall time by it gives reference time.
func refSpeed(n int) float64 {
	times := make([]int64, n)
	for i := range times {
		runtime.GC()
		times[i] = refKernel()
	}
	return refNominalNS / medianNS(times)
}
