package nectar

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"nectar/internal/obs"
	"nectar/internal/proto/nectar"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// Property: under arbitrary (bounded) loss and corruption patterns on
// both directions of the fiber, RMP delivers every message exactly once,
// in order, with intact contents.
func TestRMPExactlyOnceUnderRandomFaults(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cl, a, b := twoNodes(t, nil)
			sink := b.Mailboxes.Create("sink")

			// ~15% drop, ~10% corrupt across both directions. Both links
			// share one fault budget: after 3 faults without a forced
			// clean window, 4 frames pass untouched on both links —
			// enough for a full data+ack round trip — so no message can
			// exhaust MaxRetries (a lost data frame and a lost ack both
			// fail an attempt, which is why per-link budgets don't
			// compose).
			joint := &jointFaults{rng: rng}
			a.CAB.OutLink().SetFaultFn(joint.fn())
			b.CAB.OutLink().SetFaultFn(joint.fn())

			const n = 30
			var sent [][]byte
			var got [][]byte
			a.CAB.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
				ctx := exec.OnCAB(th)
				for i := 0; i < n; i++ {
					msg := make([]byte, 10+rng.Intn(500))
					rng.Read(msg)
					sent = append(sent, msg)
					if st := a.Transports.RMP.SendBlocking(ctx, wire.MailboxAddr{Node: b.ID, Box: sink.ID()}, 0, msg); st != nectar.StatusOK {
						cl.K.Fatalf("send %d failed: status %d", i, st)
					}
				}
			})
			b.CAB.Sched.Fork("rx", threads.SystemPriority, func(th *threads.Thread) {
				ctx := exec.OnCAB(th)
				for i := 0; i < n; i++ {
					m := sink.BeginGet(ctx)
					got = append(got, append([]byte(nil), m.Data()...))
					sink.EndGet(ctx, m)
				}
			})
			if err := cl.RunFor(30 * sim.Second); err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("delivered %d of %d", len(got), n)
			}
			for i := range got {
				if !bytes.Equal(got[i], sent[i]) {
					t.Fatalf("message %d corrupted or reordered", i)
				}
			}
			if sink.Pending() != 0 {
				t.Error("duplicate deliveries left in the sink")
			}
		})
	}
}

// jointFaults injects drops/corruption with a shared streak budget across
// every link it is installed on, guaranteeing periodic clean windows long
// enough for one full request+acknowledgment exchange.
type jointFaults struct {
	rng    *rand.Rand
	streak int
	forced int
}

func (j *jointFaults) fn() func(uint64) (bool, bool) {
	return func(seq uint64) (bool, bool) {
		if j.streak >= 3 {
			j.forced++
			if j.forced >= 4 {
				j.streak, j.forced = 0, 0
			}
			return false, false
		}
		switch j.rng.Intn(20) {
		case 0, 1, 2:
			j.streak++
			return true, false
		case 3, 4:
			j.streak++
			return false, true
		}
		return false, false
	}
}

// Property: a TCP stream crossing a lossy fiber arrives complete, in
// order, and byte-identical — the checksum/CRC machinery and go-back-N
// retransmission must mask every fault.
func TestTCPStreamIntegrityUnderRandomFaults(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cl, a, b := twoNodes(t, nil)
			ln, _ := b.TCP.Listen(80)

			// Start faults only after the handshake to keep setup simple.
			const dropPct = 10
			armed := false
			fault := func(r *rand.Rand) func(uint64) (bool, bool) {
				return func(seq uint64) (bool, bool) {
					if !armed {
						return false, false
					}
					v := r.Intn(100)
					return v < dropPct, v >= dropPct && v < dropPct+5
				}
			}
			a.CAB.OutLink().SetFaultFn(fault(rng))
			b.CAB.OutLink().SetFaultFn(fault(rand.New(rand.NewSource(seed + 7))))

			payload := make([]byte, 40<<10)
			rand.New(rand.NewSource(seed + 99)).Read(payload)
			var received []byte
			b.CAB.Sched.Fork("server", threads.SystemPriority, func(th *threads.Thread) {
				ctx := exec.OnCAB(th)
				c := ln.Accept(ctx)
				for {
					m := c.Recv(ctx)
					if m == nil {
						return
					}
					received = append(received, m.Data()...)
					c.RecvDone(ctx, m)
				}
			})
			a.CAB.Sched.Fork("client", threads.SystemPriority, func(th *threads.Thread) {
				ctx := exec.OnCAB(th)
				c, err := a.TCP.Connect(ctx, wire.NodeIP(b.ID), 80)
				if err != nil {
					cl.K.Fatalf("connect: %v", err)
				}
				armed = true
				for off := 0; off < len(payload); off += 4096 {
					c.Send(ctx, payload[off:off+4096])
				}
				armed = false // let the FIN handshake through cleanly
				c.Close(ctx)
			})
			if err := cl.RunFor(60 * sim.Second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(received, payload) {
				t.Fatalf("stream corrupted: %d bytes received, want %d (equal=%v)",
					len(received), len(payload), bytes.Equal(received, payload))
			}
			if cl.MetricsSnapshot().Value(obs.LayerTCP, "retransmits", a.CAB.Scope()) == 0 {
				t.Error("fault injection never triggered a retransmission")
			}
		})
	}
}

// Property: RRP calls complete with OK status and correct replies under
// loss, and the service executes each request at most once.
func TestRRPAtMostOnceUnderRandomFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cl, a, b := twoNodes(t, nil)
	service := b.Mailboxes.Create("svc")
	replyBox := a.Mailboxes.Create("rep")
	joint := &jointFaults{rng: rng}
	a.CAB.OutLink().SetFaultFn(joint.fn())
	b.CAB.OutLink().SetFaultFn(joint.fn())

	executed := map[string]int{}
	b.CAB.Sched.Fork("server", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for {
			m := service.BeginGet(ctx)
			req := string(m.Data())
			executed[req]++
			b.Transports.RRP.Reply(ctx, m, []byte("ack:"+req))
			service.EndGet(ctx, m)
		}
	})
	const n = 20
	ok := 0
	a.CAB.Sched.Fork("client", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for i := 0; i < n; i++ {
			req := fmt.Sprintf("call-%d", i)
			st := a.Syncs.Alloc(ctx)
			a.Transports.RRP.Call(ctx, wire.MailboxAddr{Node: b.ID, Box: service.ID()}, []byte(req), replyBox, st)
			if st.Read(ctx) != nectar.StatusOK {
				cl.K.Fatalf("call %d failed", i)
			}
			m := replyBox.BeginGet(ctx)
			if string(m.Data()) != "ack:"+req {
				cl.K.Fatalf("call %d wrong reply %q", i, m.Data())
			}
			replyBox.EndGet(ctx, m)
			ok++
		}
	})
	if err := cl.RunFor(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if ok != n {
		t.Fatalf("completed %d of %d calls", ok, n)
	}
	for req, count := range executed {
		if count > 1 {
			t.Errorf("request %q executed %d times (at-most-once violated)", req, count)
		}
	}
}
