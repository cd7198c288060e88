package datalink

import (
	"testing"

	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// TestTxFloor drives Send's preparation bracket through each state the
// shard gateway can see and checks TxFloor in each: no bracket open, one
// open, two nested (a thread's Send preempted by an interrupt handler's),
// a ready time gone stale behind the activity floor, and a preparation
// preempted past its ready time. Every bracket must close, also on
// Send's error path.
func TestTxFloor(t *testing.T) {
	r := newRig(t, false)
	l := r.la
	prep := sim.Time(l.prepTime())
	if want := sim.Time(r.a.Cost().DatalinkProcess + r.a.Cost().DMASetup); prep != want {
		t.Fatalf("prep = %d, want DatalinkProcess + DMASetup = %d", prep, want)
	}
	type probe struct {
		name           string
		act, got, want sim.Time
	}
	var probes []probe
	check := func(name string, act, want sim.Time) {
		probes = append(probes, probe{name, act, l.TxFloor(act), want})
	}
	check("idle", 0, prep)
	check("idle, late floor", 5000, 5000+prep)

	var threadSend, intrSend, intrDone sim.Time
	r.a.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		threadSend = th.Now()
		ready := threadSend + prep
		r.k.At(threadSend+prep/4, func() {
			now := r.k.Now()
			check("one bracket", now, ready)
			check("one bracket, stale behind the floor", ready+5000, ready+5000)
			r.a.Sched.RaiseInterrupt("tx-intr", func(it *threads.Thread) {
				intrSend = it.Now()
				// Both brackets are open, and the thread's is still
				// ahead of its ready time.
				r.k.At(intrSend+(ready-intrSend)/2, func() {
					check("nested, earliest ready wins", r.k.Now(), ready)
				})
				if err := l.Send(exec.OnCAB(it), wire.TypeDatagram, 2, []byte("inner")); err != nil {
					r.k.Fatalf("inner send: %v", err)
				}
				intrDone = it.Now()
				r.k.At(intrDone+1000, func() {
					now := r.k.Now()
					check("preempted past its ready time", now, now)
				})
			})
		})
		if err := l.Send(ctx, wire.TypeDatagram, 2, []byte("outer")); err != nil {
			r.k.Fatalf("outer send: %v", err)
		}
		if err := l.Send(ctx, wire.TypeDatagram, 99, []byte("unroutable")); err == nil {
			r.k.Fatalf("send to an unknown node succeeded")
		}
		now := th.Now()
		check("closed after the error path", now, now+prep)
	})
	if err := r.k.RunFor(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if intrSend <= threadSend || intrSend >= threadSend+prep || intrDone <= threadSend+prep {
		t.Fatalf("interrupt Send ran %d..%d; want it to start inside the thread's preparation %d..%d and end past it",
			intrSend, intrDone, threadSend, threadSend+prep)
	}
	if len(probes) != 7 {
		t.Fatalf("%d probes ran, want 7", len(probes))
	}
	for _, p := range probes {
		if p.got != p.want {
			t.Errorf("%s: TxFloor(%d) = %d, want %d", p.name, p.act, p.got, p.want)
		}
	}
	if l.txPrep != 0 {
		t.Errorf("%d brackets left open", l.txPrep)
	}
}
