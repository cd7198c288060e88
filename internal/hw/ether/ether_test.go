package ether

import (
	"testing"

	"nectar/internal/hw/cab"
	"nectar/internal/hw/host"
	"nectar/internal/model"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

func rig(t *testing.T) (*sim.Kernel, *model.CostModel, *host.Host, *host.Host, *Segment) {
	t.Helper()
	k := sim.NewKernel()
	cost := model.Default1990()
	ca := cab.NewSized(k, cost, 1, 0)
	cb := cab.NewSized(k, cost, 2, 0)
	ha := host.New(k, cost, "hostA", ca)
	hb := host.New(k, cost, "hostB", cb)
	return k, cost, ha, hb, NewSegment(k, cost)
}

func TestFrameDelivery(t *testing.T) {
	k, _, ha, hb, seg := rig(t)
	ifA := seg.Attach(ha)
	ifB := seg.Attach(hb)
	var got []int
	ifB.OnReceive(func(th *threads.Thread, n int) { got = append(got, n) })
	ha.Run("send", func(th *threads.Thread) {
		ctx := exec.OnHost(th, ha)
		ifA.Send(ctx, ifB.Addr(), 100)
		ifA.Send(ctx, ifB.Addr(), 1500)
	})
	if err := k.RunFor(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 100 || got[1] != 1500 {
		t.Fatalf("got %v", got)
	}
	frames, bytes := seg.Stats()
	if frames != 2 || bytes != 1600 {
		t.Errorf("stats = %d/%d", frames, bytes)
	}
}

func TestMediumSerialization(t *testing.T) {
	// Two senders share the 10 Mbit/s medium: frames serialize.
	k, _, ha, hb, seg := rig(t)
	ifA := seg.Attach(ha)
	ifB := seg.Attach(hb)
	var arrivals []sim.Time
	ifB.OnReceive(func(th *threads.Thread, n int) { arrivals = append(arrivals, th.Now()) })
	ha.Run("send", func(th *threads.Thread) {
		ctx := exec.OnHost(th, ha)
		ifA.Send(ctx, ifB.Addr(), 1500)
		ifA.Send(ctx, ifB.Addr(), 1500)
	})
	if err := k.RunFor(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// 1538 bytes at 1.25 MB/s = ~1230us apart at least.
	if gap := sim.Duration(arrivals[1] - arrivals[0]); gap < 1200*sim.Microsecond {
		t.Errorf("frames %v apart; medium not serializing", gap)
	}
}

func TestOversizeFramePanics(t *testing.T) {
	k, _, ha, hb, seg := rig(t)
	ifA := seg.Attach(ha)
	ifB := seg.Attach(hb)
	ha.Run("send", func(th *threads.Thread) {
		ctx := exec.OnHost(th, ha)
		ifA.Send(ctx, ifB.Addr(), MTU+1)
	})
	if err := k.RunFor(sim.Millisecond); err == nil {
		t.Error("oversize frame did not fail")
	}
}
