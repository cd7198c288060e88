package syncs

import (
	"testing"

	"nectar/internal/hw/cab"
	"nectar/internal/hw/host"
	"nectar/internal/model"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/hostif"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

type rig struct {
	k *sim.Kernel
	c *cab.CAB
	h *host.Host
	p *Pool
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.NewKernel()
	cost := model.Default1990()
	c := cab.NewSized(k, cost, 1, 0)
	h := host.New(k, cost, "host1", c)
	f := hostif.New(h, c)
	return &rig{k: k, c: c, h: h, p: NewPool(f)}
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteThenRead(t *testing.T) {
	r := newRig(t)
	var s *Sync
	var got uint32
	r.c.Sched.Fork("main", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		s = r.p.Alloc(ctx)
		s.Write(ctx, 77)
		got = s.Read(ctx)
	})
	r.run(t)
	if got != 77 {
		t.Errorf("got %d, want 77", got)
	}
}

func TestReadBlocksUntilWrite(t *testing.T) {
	r := newRig(t)
	var got uint32
	var when sim.Time
	var s *Sync
	r.c.Sched.Fork("reader", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		s = r.p.Alloc(ctx)
		got = s.Read(ctx)
		when = th.Now()
	})
	r.c.Sched.Fork("writer", threads.SystemPriority, func(th *threads.Thread) {
		th.Sleep(100 * sim.Microsecond)
		s.Write(exec.OnCAB(th), 9)
	})
	r.run(t)
	if got != 9 || when < sim.Time(100*sim.Microsecond) {
		t.Errorf("got %d at %v", got, when)
	}
}

func TestCABWritesHostReads(t *testing.T) {
	// The paper's primary use: return a status from a transport on the
	// CAB to a sender on the host.
	r := newRig(t)
	var s *Sync
	var got uint32
	r.h.Run("sender", func(th *threads.Thread) {
		ctx := exec.OnHost(th, r.h)
		s = r.p.Alloc(ctx)
		got = s.Read(ctx) // polls until the CAB writes
	})
	r.c.Sched.Fork("transport", threads.SystemPriority, func(th *threads.Thread) {
		th.Sleep(150 * sim.Microsecond)
		s.Write(exec.OnCAB(th), 1)
	})
	r.run(t)
	if got != 1 {
		t.Errorf("got %d", got)
	}
}

func TestHostWriteOffloadsToCAB(t *testing.T) {
	r := newRig(t)
	var s *Sync
	var got uint32
	r.c.Sched.Fork("reader", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		s = r.p.Alloc(ctx)
		got = s.Read(ctx)
	})
	r.h.Run("writer", func(th *threads.Thread) {
		th.Sleep(100 * sim.Microsecond)
		s.Write(exec.OnHost(th, r.h), 123)
	})
	r.run(t)
	if got != 123 {
		t.Errorf("got %d", got)
	}
}

func TestCancelBeforeWriteFreesOnWrite(t *testing.T) {
	r := newRig(t)
	r.c.Sched.Fork("main", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		s := r.p.Alloc(ctx)
		s.Cancel(ctx)
		cf := r.p.cabFree.Len()
		if cf != 0 {
			r.k.Fatalf("sync freed at Cancel before Write")
		}
		s.Write(ctx, 5) // write after cancel frees the sync
		cf = r.p.cabFree.Len()
		if cf != 1 {
			r.k.Fatalf("sync not freed by Write-after-Cancel (free=%d)", cf)
		}
	})
	r.run(t)
}

func TestCancelAfterWriteFreesNow(t *testing.T) {
	r := newRig(t)
	r.c.Sched.Fork("main", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		s := r.p.Alloc(ctx)
		s.Write(ctx, 5)
		s.Cancel(ctx)
		cf := r.p.cabFree.Len()
		if cf != 1 {
			r.k.Fatalf("sync not freed by Cancel-after-Write")
		}
	})
	r.run(t)
}

func TestSeparatePools(t *testing.T) {
	r := newRig(t)
	r.c.Sched.Fork("cabside", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		s := r.p.Alloc(ctx)
		s.Write(ctx, 1)
		s.Read(ctx)
	})
	r.h.Run("hostside", func(th *threads.Thread) {
		ctx := exec.OnHost(th, r.h)
		s := r.p.Alloc(ctx)
		th.Sleep(50 * sim.Microsecond)
		s.Write(ctx, 2)
		s.Read(ctx)
	})
	r.run(t)
	cf, hf := r.p.cabFree.Len(), r.p.hostFree.Len()
	if cf != 1 || hf != 1 {
		t.Errorf("pools = %d/%d, want 1/1 (freed to their own pools)", cf, hf)
	}
}

func TestPoolReuse(t *testing.T) {
	r := newRig(t)
	r.c.Sched.Fork("main", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		a := r.p.Alloc(ctx)
		a.Write(ctx, 1)
		a.Read(ctx)
		b := r.p.Alloc(ctx) // must reuse a
		if a != b {
			r.k.Fatalf("freed sync not reused")
		}
		b.Write(ctx, 2)
		if v := b.Read(ctx); v != 2 {
			r.k.Fatalf("reused sync returned %d", v)
		}
	})
	r.run(t)
}

func TestDoubleWritePanics(t *testing.T) {
	r := newRig(t)
	r.c.Sched.Fork("main", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		s := r.p.Alloc(ctx)
		s.Write(ctx, 1)
		s.Write(ctx, 2)
	})
	if err := r.k.Run(); err == nil {
		t.Error("double Write did not fail")
	}
}

func TestWriteFromInterruptHandler(t *testing.T) {
	// Transports complete sends from interrupt context; Write must be
	// safe there (it is already atomic with respect to threads).
	r := newRig(t)
	var s *Sync
	var got uint32
	r.c.Sched.Fork("reader", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		s = r.p.Alloc(ctx)
		got = s.Read(ctx)
	})
	r.k.After(80*sim.Microsecond, func() {
		r.c.Sched.RaiseInterrupt("tx-done", func(t2 *threads.Thread) {
			s.Write(exec.OnCAB(t2), 55)
		})
	})
	r.run(t)
	if got != 55 {
		t.Errorf("got %d", got)
	}
}
