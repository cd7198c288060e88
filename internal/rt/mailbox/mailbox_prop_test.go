package mailbox

import (
	"fmt"
	"math/rand"
	"testing"

	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// Property test: an arbitrary interleaving of producers, consumers and
// forwarders over a web of mailboxes must preserve the core invariants —
// no message lost, duplicated or corrupted; per-source FIFO order through
// any single path; and all buffer storage returned to the heap at the end.
func TestMailboxRandomOpsInvariants(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newRig(t)
			heapBefore := r.c.Heap.Used()

			const nBoxes = 4
			const perProducer = 30
			var boxes []*Mailbox
			for i := 0; i < nBoxes; i++ {
				mb := r.rt.Create(fmt.Sprintf("web%d", i))
				mb.SetCapacity(1 << 20)
				boxes = append(boxes, mb)
			}
			final := r.rt.Create("final")
			final.SetCapacity(1 << 20)

			// Two producers write stamped messages into random boxes.
			type stamp struct{ producer, seq byte }
			for p := byte(0); p < 2; p++ {
				p := p
				delay := sim.Duration(rng.Intn(20)) * sim.Microsecond
				r.c.Sched.Fork(fmt.Sprintf("prod%d", p), threads.SystemPriority, func(th *threads.Thread) {
					ctx := exec.OnCAB(th)
					for i := byte(0); i < perProducer; i++ {
						mb := boxes[(int(p)*7+int(i))%nBoxes]
						size := 2 + (int(p)+int(i)*13)%400
						m := mb.BeginPut(ctx, size)
						m.Data()[0] = p
						m.Data()[1] = i
						mb.EndPut(ctx, m)
						th.Sleep(delay)
					}
				})
			}
			// Forwarders drain each web box and Enqueue (sometimes after a
			// trim) into the final box.
			for i := 0; i < nBoxes; i++ {
				i := i
				trim := rng.Intn(2) == 0
				r.c.Sched.Fork(fmt.Sprintf("fwd%d", i), threads.SystemPriority, func(th *threads.Thread) {
					ctx := exec.OnCAB(th)
					for {
						m := boxes[i].BeginGet(ctx)
						if trim && m.Len() > 4 {
							m.TrimSuffix(ctx, m.Len()-4)
						}
						boxes[i].Enqueue(ctx, m, final)
					}
				})
			}
			// Consumer: collect everything.
			got := map[stamp]int{}
			perSourceLast := map[byte]int{0: -1, 1: -1}
			fifoViolations := 0
			done := false
			r.c.Sched.Fork("consumer", threads.SystemPriority, func(th *threads.Thread) {
				ctx := exec.OnCAB(th)
				for n := 0; n < 2*perProducer; n++ {
					m := final.BeginGet(ctx)
					s := stamp{m.Data()[0], m.Data()[1]}
					got[s]++
					// FIFO holds per (producer, path); with random paths we
					// only check that per-producer sequence numbers seen via
					// the same box never regress. Weak check: count global
					// regressions for diagnostics only.
					if int(s.seq) < perSourceLast[s.producer] {
						fifoViolations++ // allowed across different paths
					}
					perSourceLast[s.producer] = int(s.seq)
					final.EndGet(ctx, m)
				}
				done = true
			})
			for !done {
				if err := r.k.RunFor(10 * sim.Millisecond); err != nil {
					t.Fatal(err)
				}
				if r.k.Now() > sim.Time(30*sim.Second) {
					t.Fatal("web stalled")
				}
			}
			// Exactly-once for every stamped message.
			for p := byte(0); p < 2; p++ {
				for i := byte(0); i < perProducer; i++ {
					if c := got[stamp{p, i}]; c != 1 {
						t.Errorf("message %d/%d delivered %d times", p, i, c)
					}
				}
			}
			// All storage back on the heap (only the per-mailbox cached
			// buffers remain allocated).
			wantResident := heapBefore + (nBoxes+1)*CachedBufSize
			if used := r.c.Heap.Used(); used != wantResident {
				t.Errorf("heap used = %d, want %d (buffers leaked)", used, wantResident)
			}
			if err := r.c.Heap.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// Single-path FIFO: messages from one producer through one box to one
// consumer arrive in exact order (the strong version of the property).
func TestMailboxSinglePathFIFO(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("path")
	mb.SetCapacity(1 << 20)
	const n = 200
	var got []byte
	r.c.Sched.Fork("prod", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for i := 0; i < n; i++ {
			m := mb.BeginPut(ctx, 1)
			m.Data()[0] = byte(i)
			mb.EndPut(ctx, m)
		}
	})
	done := false
	r.c.Sched.Fork("cons", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for i := 0; i < n; i++ {
			m := mb.BeginGet(ctx)
			got = append(got, m.Data()[0])
			mb.EndGet(ctx, m)
		}
		done = true
	})
	for !done {
		if err := r.k.RunFor(10 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("FIFO violated at %d: got %d", i, v)
		}
	}
}

// TrimSuffix removes n bytes from the end of the message in place, at
// TrimPrefix's cost. Only the tests trim a message's tail.
func (m *Msg) TrimSuffix(ctx exec.Context, n int) {
	if n < 0 || n > m.n {
		sim.Panicf("mailbox: TrimSuffix(%d) of %d-byte message", n, m.n)
	}
	ctx.Compute(m.rt.cost.MailboxEnqueue / 2)
	ctx.Words(2)
	m.n -= n
}
