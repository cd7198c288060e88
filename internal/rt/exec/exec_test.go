package exec

import (
	"bytes"
	"testing"

	"nectar/internal/hw/cab"
	"nectar/internal/hw/host"
	"nectar/internal/model"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

func rig(t *testing.T) (*sim.Kernel, *cab.CAB, *host.Host) {
	t.Helper()
	k := sim.NewKernel()
	cost := model.Default1990()
	c := cab.NewSized(k, cost, 1, 0)
	h := host.New(k, cost, "h", c)
	return k, c, h
}

func TestContextIdentity(t *testing.T) {
	k, c, h := rig(t)
	c.Sched.Fork("cabthread", threads.SystemPriority, func(th *threads.Thread) {
		ctx := OnCAB(th)
		if ctx.IsHost() {
			k.Fatalf("CAB context claims host")
		}
		if ctx.Cost() == nil {
			k.Fatalf("no cost model")
		}
	})
	h.Run("proc", func(th *threads.Thread) {
		ctx := OnHost(th, h)
		if !ctx.IsHost() {
			k.Fatalf("host context claims CAB")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWordsChargesOnlyHost(t *testing.T) {
	k, c, h := rig(t)
	var cabTime, hostTime sim.Duration
	c.Sched.Fork("cabthread", threads.SystemPriority, func(th *threads.Thread) {
		start := th.Now()
		OnCAB(th).Words(100)
		cabTime = sim.Duration(th.Now() - start)
	})
	h.Run("proc", func(th *threads.Thread) {
		start := th.Now()
		OnHost(th, h).Words(100)
		hostTime = sim.Duration(th.Now() - start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if cabTime != 0 {
		t.Errorf("CAB-side Words cost %v, want 0 (35ns SRAM)", cabTime)
	}
	if hostTime < 100*sim.Microsecond {
		t.Errorf("host-side Words cost %v, want >= 100us of PIO", hostTime)
	}
}

func TestCopyInOutHost(t *testing.T) {
	k, c, h := rig(t)
	dst := c.Data.Slice(4096, 32)
	h.Run("proc", func(th *threads.Thread) {
		ctx := OnHost(th, h)
		ctx.CopyIn(dst, bytes.Repeat([]byte{7}, 32))
		out := make([]byte, 32)
		ctx.CopyOut(out, dst)
		if out[31] != 7 {
			k.Fatalf("copy round trip failed")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCopyOnCABChargesMemRate(t *testing.T) {
	k, c, _ := rig(t)
	dst := c.Data.Slice(0, 16000)
	var elapsed sim.Duration
	c.Sched.Fork("cabthread", threads.SystemPriority, func(th *threads.Thread) {
		start := th.Now()
		OnCAB(th).CopyIn(dst, make([]byte, 16000))
		elapsed = sim.Duration(th.Now() - start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 16000 bytes at 16 MB/s = 1ms.
	if elapsed != sim.Millisecond {
		t.Errorf("16KB CAB copy took %v, want 1ms", elapsed)
	}
}
