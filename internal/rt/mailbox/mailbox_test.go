package mailbox

import (
	"bytes"
	"fmt"
	"testing"

	"nectar/internal/hw/cab"
	"nectar/internal/hw/host"
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/hostif"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

type rig struct {
	k  *sim.Kernel
	c  *cab.CAB
	h  *host.Host
	f  *hostif.IF
	rt *Runtime
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.NewKernel()
	cost := model.Default1990()
	c := cab.NewSized(k, cost, 1, 0)
	h := host.New(k, cost, "host1", c)
	f := hostif.New(h, c)
	rt := NewRuntime(c)
	rt.AttachHost(f)
	return &rig{k: k, c: c, h: h, f: f, rt: rt}
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetOnCAB(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("box")
	var got []byte
	r.c.Sched.Fork("writer", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := mb.BeginPut(ctx, 11)
		m.Write(ctx, 0, []byte("hello world"))
		mb.EndPut(ctx, m)
	})
	r.c.Sched.Fork("reader", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := mb.BeginGet(ctx)
		got = append([]byte(nil), m.Data()...)
		mb.EndGet(ctx, m)
	})
	r.run(t)
	if string(got) != "hello world" {
		t.Errorf("got %q", got)
	}
}

func TestReaderBlocksUntilMessage(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("box")
	var gotAt sim.Time
	r.c.Sched.Fork("reader", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := mb.BeginGet(ctx)
		gotAt = th.Now()
		mb.EndGet(ctx, m)
	})
	r.c.Sched.Fork("writer", threads.SystemPriority, func(th *threads.Thread) {
		th.Sleep(300 * sim.Microsecond)
		ctx := exec.OnCAB(th)
		m := mb.BeginPut(ctx, 4)
		m.Write(ctx, 0, []byte("ping"))
		mb.EndPut(ctx, m)
	})
	r.run(t)
	if gotAt < sim.Time(300*sim.Microsecond) {
		t.Errorf("reader returned at %v, before the write", gotAt)
	}
}

func TestFIFOOrder(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("box")
	var got []byte
	r.c.Sched.Fork("writer", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for i := byte(0); i < 10; i++ {
			m := mb.BeginPut(ctx, 1)
			m.Data()[0] = i
			mb.EndPut(ctx, m)
		}
	})
	r.c.Sched.Fork("reader", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for i := 0; i < 10; i++ {
			m := mb.BeginGet(ctx)
			got = append(got, m.Data()[0])
			mb.EndGet(ctx, m)
		}
	})
	r.run(t)
	for i, v := range got {
		if int(v) != i {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestBeginPutBlocksWhenFull(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("box")
	mb.SetCapacity(1024)
	var secondAt sim.Time
	r.c.Sched.Fork("writer", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m1 := mb.BeginPut(ctx, 1000)
		mb.EndPut(ctx, m1)
		m2 := mb.BeginPut(ctx, 1000) // must block until reader frees m1
		secondAt = th.Now()
		mb.EndPut(ctx, m2)
	})
	r.c.Sched.Fork("reader", threads.SystemPriority, func(th *threads.Thread) {
		th.Sleep(400 * sim.Microsecond)
		ctx := exec.OnCAB(th)
		m := mb.BeginGet(ctx)
		mb.EndGet(ctx, m)
		m2 := mb.BeginGet(ctx)
		mb.EndGet(ctx, m2)
	})
	r.run(t)
	if secondAt < sim.Time(400*sim.Microsecond) {
		t.Errorf("second BeginPut returned at %v, before space was freed", secondAt)
	}
}

func TestBeginPutNBFailsWhenFull(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("box")
	mb.SetCapacity(512)
	var nb *Msg
	okPath := false
	r.c.Sched.Fork("w", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := mb.BeginPut(ctx, 512)
		nb = mb.BeginPutNB(ctx, 512)
		okPath = true
		mb.EndPut(ctx, m)
		got := mb.BeginGet(ctx)
		mb.EndGet(ctx, got)
	})
	r.run(t)
	if !okPath {
		t.Fatal("writer did not complete")
	}
	if nb != nil {
		t.Error("BeginPutNB succeeded on a full mailbox")
	}
}

func TestCachedSmallBuffer(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("box")
	allocs0 := r.c.Heap.Allocs()
	r.c.Sched.Fork("w", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for i := 0; i < 5; i++ {
			m := mb.BeginPut(ctx, 64) // <= CachedBufSize
			mb.EndPut(ctx, m)
			g := mb.BeginGet(ctx)
			mb.EndGet(ctx, g)
		}
	})
	r.run(t)
	if allocs := r.c.Heap.Allocs() - allocs0; allocs != 0 {
		t.Errorf("%d heap allocs for small messages, want 0 (cached buffer)", allocs)
	}
}

func TestLargeMessageUsesHeap(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("box")
	allocs0 := r.c.Heap.Allocs()
	r.c.Sched.Fork("w", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := mb.BeginPut(ctx, 4096)
		mb.EndPut(ctx, m)
		g := mb.BeginGet(ctx)
		mb.EndGet(ctx, g)
	})
	r.run(t)
	if allocs := r.c.Heap.Allocs() - allocs0; allocs != 1 {
		t.Errorf("allocs = %d, want 1", allocs)
	}
	if r.c.Heap.Used() != CachedBufSize {
		t.Errorf("leak: heap used = %d, want only the cached buffer (%d)", r.c.Heap.Used(), CachedBufSize)
	}
}

func TestTrimPrefixSuffix(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("box")
	var got []byte
	r.c.Sched.Fork("w", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := mb.BeginPut(ctx, 12)
		m.Write(ctx, 0, []byte("HDRpayloadTL"))
		mb.EndPut(ctx, m)
		g := mb.BeginGet(ctx)
		g.TrimPrefix(ctx, 3)
		g.TrimSuffix(ctx, 2)
		got = append([]byte(nil), g.Data()...)
		mb.EndGet(ctx, g)
	})
	r.run(t)
	if string(got) != "payload" {
		t.Errorf("got %q, want \"payload\"", got)
	}
}

func TestEnqueueMovesWithoutCopy(t *testing.T) {
	r := newRig(t)
	a := r.rt.Create("a")
	b := r.rt.Create("b")
	var fromB []byte
	var sameBacking bool
	r.c.Sched.Fork("w", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := a.BeginPut(ctx, 300) // > cache size: heap buffer
		m.Write(ctx, 0, bytes.Repeat([]byte("x"), 300))
		orig := &m.Data()[0]
		a.EndPut(ctx, m)

		g := a.BeginGet(ctx)
		a.Enqueue(ctx, g, b)

		got := b.BeginGet(ctx)
		sameBacking = orig == &got.Data()[0]
		fromB = append([]byte(nil), got.Data()...)
		b.EndGet(ctx, got)
	})
	r.run(t)
	if len(fromB) != 300 {
		t.Fatalf("message lost in Enqueue: %d bytes", len(fromB))
	}
	if !sameBacking {
		t.Error("Enqueue copied the data")
	}
	if r.c.Heap.Used() != 2*CachedBufSize {
		t.Errorf("heap used = %d after EndGet, want only the two cached buffers", r.c.Heap.Used())
	}
}

func TestUpcallRunsInWriterContext(t *testing.T) {
	// Paper §3.3: attaching the server body as a reader upcall converts a
	// cross-thread call into a local one — no context switch.
	r := newRig(t)
	mb := r.rt.Create("server")
	var served []byte
	mb.SetUpcall(func(t2 *threads.Thread, box *Mailbox) {
		ctx := exec.OnCAB(t2)
		m := box.BeginGetNB(ctx)
		if m == nil {
			return
		}
		served = append(served, m.Data()[0])
		box.EndGet(ctx, m)
	})
	switches0 := r.c.Sched.Switches()
	r.c.Sched.Fork("client", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for i := byte(0); i < 3; i++ {
			m := mb.BeginPut(ctx, 1)
			m.Data()[0] = i
			mb.EndPut(ctx, m)
		}
	})
	r.run(t)
	if len(served) != 3 {
		t.Fatalf("served %d of 3", len(served))
	}
	// One switch to dispatch the client; the upcalls add none.
	if sw := r.c.Sched.Switches() - switches0; sw > 1 {
		t.Errorf("switches = %d, want <= 1 (upcall must not context-switch)", sw)
	}
}

func TestHostPutCABGet(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("box")
	var got []byte
	r.h.Run("producer", func(th *threads.Thread) {
		ctx := exec.OnHost(th, r.h)
		m := mb.BeginPut(ctx, 5)
		m.Write(ctx, 0, []byte("hi512"))
		mb.EndPut(ctx, m)
	})
	r.c.Sched.Fork("consumer", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := mb.BeginGet(ctx)
		got = append([]byte(nil), m.Data()...)
		mb.EndGet(ctx, m)
	})
	r.run(t)
	if string(got) != "hi512" {
		t.Errorf("got %q", got)
	}
}

func TestCABPutHostGetPolling(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("box")
	var got []byte
	var when sim.Time
	r.h.Run("consumer", func(th *threads.Thread) {
		ctx := exec.OnHost(th, r.h)
		m := mb.BeginGetPoll(ctx)
		got = make([]byte, m.Len())
		m.Read(ctx, 0, got)
		mb.EndGet(ctx, m)
		when = th.Now()
	})
	r.c.Sched.Fork("producer", threads.SystemPriority, func(th *threads.Thread) {
		th.Sleep(250 * sim.Microsecond)
		ctx := exec.OnCAB(th)
		m := mb.BeginPut(ctx, 3)
		m.Write(ctx, 0, []byte("abc"))
		mb.EndPut(ctx, m)
	})
	r.run(t)
	if string(got) != "abc" {
		t.Errorf("got %q", got)
	}
	if when < sim.Time(250*sim.Microsecond) {
		t.Error("host got the message before it was put")
	}
}

func TestHostGetBlocking(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("box")
	var got []byte
	r.h.Run("server", func(th *threads.Thread) {
		ctx := exec.OnHost(th, r.h)
		m := mb.BeginGet(ctx) // blocking wait in the driver
		got = make([]byte, m.Len())
		m.Read(ctx, 0, got)
		mb.EndGet(ctx, m)
	})
	r.c.Sched.Fork("producer", threads.SystemPriority, func(th *threads.Thread) {
		th.Sleep(1 * sim.Millisecond)
		ctx := exec.OnCAB(th)
		m := mb.BeginPut(ctx, 2)
		m.Write(ctx, 0, []byte("ok"))
		mb.EndPut(ctx, m)
	})
	r.run(t)
	if string(got) != "ok" {
		t.Errorf("got %q", got)
	}
}

func TestHostRPCImplementation(t *testing.T) {
	// The RPC-based host implementation must be functionally identical.
	r := newRig(t)
	mb := r.rt.Create("box")
	mb.SetHostRPC(true)
	var got []byte
	r.h.Run("producer", func(th *threads.Thread) {
		ctx := exec.OnHost(th, r.h)
		m := mb.BeginPut(ctx, 4)
		m.Write(ctx, 0, []byte("rpc!"))
		mb.EndPut(ctx, m)
	})
	r.c.Sched.Fork("consumer", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := mb.BeginGet(ctx)
		got = append([]byte(nil), m.Data()...)
		mb.EndGet(ctx, m)
	})
	r.run(t)
	if string(got) != "rpc!" {
		t.Errorf("got %q", got)
	}
}

func TestSharedMemFasterThanRPC(t *testing.T) {
	// E8 (paper §3.3): the shared-memory implementation is about a factor
	// of two faster than the RPC-based one for host mailbox operations.
	elapsed := func(rpc bool) sim.Duration {
		r := newRig(t)
		mb := r.rt.Create("box")
		mb.SetHostRPC(rpc)
		var total sim.Duration
		r.h.Run("bench", func(th *threads.Thread) {
			ctx := exec.OnHost(th, r.h)
			start := th.Now()
			for i := 0; i < 50; i++ {
				m := mb.BeginPut(ctx, 16)
				mb.EndPut(ctx, m)
				g := mb.BeginGetPoll(ctx)
				mb.EndGet(ctx, g)
			}
			total = sim.Duration(th.Now() - start)
		})
		r.run(t)
		return total
	}
	shared := elapsed(false)
	rpc := elapsed(true)
	ratio := float64(rpc) / float64(shared)
	if ratio < 1.5 || ratio > 4.0 {
		t.Errorf("RPC/shared ratio = %.2f (shared %v, rpc %v), want ~2x", ratio, shared, rpc)
	}
}

func TestMultipleReadersDrainConcurrently(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("box")
	var served [2][]byte
	for w := 0; w < 2; w++ {
		w := w
		r.c.Sched.Fork(fmt.Sprintf("worker%d", w), threads.SystemPriority, func(th *threads.Thread) {
			ctx := exec.OnCAB(th)
			for i := 0; i < 5; i++ {
				m := mb.BeginGet(ctx)
				th.Compute(50 * sim.Microsecond) // simulate processing
				served[w] = append(served[w], m.Data()[0])
				mb.EndGet(ctx, m)
			}
		})
	}
	r.c.Sched.Fork("producer", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for i := byte(0); i < 10; i++ {
			m := mb.BeginPut(ctx, 1)
			m.Data()[0] = i
			mb.EndPut(ctx, m)
		}
	})
	r.run(t)
	if len(served[0])+len(served[1]) != 10 {
		t.Fatalf("served %d+%d of 10", len(served[0]), len(served[1]))
	}
	if len(served[0]) == 0 || len(served[1]) == 0 {
		t.Error("work not shared between readers")
	}
}

func TestLookup(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("box")
	got, ok := r.rt.Lookup(mb.ID())
	if !ok || got != mb {
		t.Error("Lookup failed")
	}
	if _, ok := r.rt.Lookup(9999); ok {
		t.Error("Lookup of unknown ID succeeded")
	}
	if mb.Addr().Node != 1 || mb.Addr().Box != mb.ID() {
		t.Errorf("Addr = %v", mb.Addr())
	}
}

// TestWarmPutGetAllocs guards a warm put/get cycle on a CAB mailbox: it
// allocates nothing. The message record comes from the runtime's free
// list, and the queue keeps its capacity when it drains (sim.PopFront);
// a queue that reallocates on every put, or a record made per message,
// adds one.
func TestWarmPutGetAllocs(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("box")
	var allocs float64
	r.c.Sched.Fork("putget", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		cycle := func() {
			mb.EndPut(ctx, mb.BeginPut(ctx, 64))
			mb.EndGet(ctx, mb.BeginGet(ctx))
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		allocs = testing.AllocsPerRun(200, cycle)
	})
	r.run(t)
	if allocs != 0 {
		t.Errorf("warm put/get allocates %.1f allocs/cycle, want 0", allocs)
	}
}

// TestReleasedMsgReuse checks that End_Get hands the record back to the
// runtime cleared: the next Begin_Put reuses it, and it carries none of
// the previous message's sender, tag or metadata.
func TestReleasedMsgReuse(t *testing.T) {
	r := newRig(t)
	mb := r.rt.Create("box")
	r.c.Sched.Fork("putget", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := mb.BeginPut(ctx, 8)
		m.From, m.Tag, m.Meta = wire.MailboxAddr{Node: 3, Box: 4}, 5, "meta"
		mb.EndPut(ctx, m)
		mb.EndGet(ctx, mb.BeginGet(ctx))
		m2 := mb.BeginPut(ctx, 300) // a heap buffer this time, not the cached one
		if m2 != m {
			r.k.Fatalf("Begin_Put did not reuse the released record")
		}
		if m2.From != (wire.MailboxAddr{}) || m2.Tag != 0 || m2.Meta != nil {
			r.k.Fatalf("reused record keeps From=%v Tag=%d Meta=%v", m2.From, m2.Tag, m2.Meta)
		}
		if m2.Len() != 300 {
			r.k.Fatalf("reused record has Len %d, want 300", m2.Len())
		}
		mb.AbortPut(ctx, m2)
	})
	r.run(t)
}

// TestReleasedMsgPanics pins the poisoning of released records: every
// operation on a message after End_Get or AbortPut fails at once instead
// of aliasing whichever message reuses the record next.
func TestReleasedMsgPanics(t *testing.T) {
	ops := []struct {
		name string
		use  func(ctx exec.Context, mb, dst *Mailbox, m *Msg)
	}{
		{"Data", func(_ exec.Context, _, _ *Mailbox, m *Msg) { m.Data() }},
		{"Len", func(_ exec.Context, _, _ *Mailbox, m *Msg) { m.Len() }},
		{"Data", func(ctx exec.Context, _, _ *Mailbox, m *Msg) { m.Read(ctx, 0, make([]byte, 1)) }},
		{"EndGet", func(ctx exec.Context, mb, _ *Mailbox, m *Msg) { mb.EndGet(ctx, m) }},
		{"Enqueue", func(ctx exec.Context, mb, dst *Mailbox, m *Msg) { mb.Enqueue(ctx, m, dst) }},
	}
	for _, abort := range []bool{false, true} {
		for _, op := range ops {
			r := newRig(t)
			mb, dst := r.rt.Create("box"), r.rt.Create("dst")
			var got any
			r.c.Sched.Fork("user", threads.SystemPriority, func(th *threads.Thread) {
				ctx := exec.OnCAB(th)
				m := mb.BeginPut(ctx, 8)
				if abort {
					mb.AbortPut(ctx, m)
				} else {
					mb.EndPut(ctx, m)
					mb.EndGet(ctx, mb.BeginGet(ctx))
				}
				defer func() { got = recover() }()
				op.use(ctx, mb, dst, m)
			})
			r.run(t)
			want := fmt.Sprintf("mailbox: %s of a released message (use after End_Get or AbortPut)", op.name)
			if got != want {
				t.Errorf("abort=%v: %s on a released message: recovered %v, want panic %q", abort, op.name, got, want)
			}
		}
	}
}

// TestFreeKeepsGaugesAndStorage: Free unregisters a mailbox, returns its
// cached buffer and the buffers of messages still queued in it to the
// CAB heap, and leaves its puts, gets and enqueues in the gauges.
func TestFreeKeepsGaugesAndStorage(t *testing.T) {
	r := newRig(t)
	gauges := func() map[string]uint64 {
		g := map[string]uint64{}
		r.rt.Gauges(func(_ obs.Layer, name, _ string, v uint64) { g[name] = v })
		return g
	}
	used := r.c.Heap.Used()
	mb := r.rt.Create("box")
	r.c.Sched.Fork("user", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for _, n := range []int{8, 8, 2 * CachedBufSize} {
			mb.EndPut(ctx, mb.BeginPut(ctx, n))
		}
		mb.EndGet(ctx, mb.BeginGet(ctx))
	})
	r.run(t)
	before := gauges()
	if mb.Pending() != 2 || r.c.Heap.Used() == used {
		t.Fatalf("%d pending and %d heap bytes in use, want 2 queued messages on the heap", mb.Pending(), r.c.Heap.Used())
	}
	mb.Free()
	if _, ok := r.rt.Lookup(mb.ID()); ok {
		t.Error("a freed mailbox is still registered")
	}
	if got := r.c.Heap.Used(); got != used {
		t.Errorf("CAB heap holds %d bytes after Free, want %d", got, used)
	}
	if got := gauges(); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Errorf("gauges %v after Free, want %v", got, before)
	}
	if next := r.rt.Create("next"); next.ID() == mb.ID() {
		t.Errorf("a new mailbox reuses the freed ID %d", mb.ID())
	}
}
