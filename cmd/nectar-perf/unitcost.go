package main

import (
	"flag"
	"testing"

	"nectar"
	"nectar/internal/fabric"
	"nectar/internal/hw/cab"
	"nectar/internal/model"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// unitOp is one layer operation timed in isolation with testing.Benchmark
// on public functions. run performs b.N iterations and returns how many
// operations of the layer they made (e.g. two Proc handoffs per
// ping-pong round).
type unitOp struct {
	name string
	run  func(b *testing.B) (ops float64)
}

var unitOps = []unitOp{
	{"sim.dispatch", benchDispatch},
	{"sim.proc_switch", benchProcSwitch},
	{"threads.switch", benchThreadSwitch},
	{"mailbox.put_get", benchMailbox},
	{"wire.sum_8k", benchSum8K},
	{"wire.tcp_header", benchTCPHeader},
	{"fabric.build_k16", benchFabricBuild},
	{"obs.snapshot_2node", benchSnapshot},
}

// unitCosts runs every unit benchmark and returns unit.<op>_ns, in
// reference time at the given host speed (calib.go), and unit.<op>_allocs
// per layer operation.
func unitCosts(speed float64) map[string]float64 {
	// testing.Benchmark honours -test.benchtime, which exists once
	// testing.Init has registered the test flags.
	testing.Init()
	if err := flag.Set("test.benchtime", "200ms"); err != nil {
		panic(err) // the flag is registered by testing.Init just above
	}
	out := map[string]float64{}
	for _, op := range unitOps {
		var perIter float64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			perIter = op.run(b) / float64(b.N)
		})
		if r.N == 0 || perIter == 0 {
			continue
		}
		out["unit."+op.name+"_ns"] = float64(r.T.Nanoseconds()) / float64(r.N) / perIter * speed
		out["unit."+op.name+"_allocs"] = float64(r.MemAllocs) / float64(r.N) / perIter
	}
	return out
}

func benchDispatch(b *testing.B) float64 {
	k := sim.NewKernel()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(sim.Microsecond, fn)
		if i%1024 == 1023 {
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	return float64(b.N)
}

// benchProcSwitch ping-pongs two Procs through Signals: two handoffs per
// round, each a goroutine switch there and back.
func benchProcSwitch(b *testing.B) float64 {
	k := sim.NewKernel()
	sA, sB := k.NewSignal("a"), k.NewSignal("b")
	turn := 0
	n := b.N
	k.Go("a", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			for turn != 0 {
				p.Wait(sA)
			}
			turn = 1
			sB.Signal()
		}
	})
	k.Go("b", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			for turn != 1 {
				p.Wait(sB)
			}
			turn = 0
			sA.Signal()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	return float64(2 * b.N)
}

// benchThreadSwitch has two equal-priority CAB threads yield to each
// other; the scheduler's own counter gives the context switches made.
func benchThreadSwitch(b *testing.B) float64 {
	k := sim.NewKernel()
	s := threads.New(k, model.Default1990(), "cpu")
	for _, name := range []string{"a", "b"} {
		s.Fork(name, threads.SystemPriority, func(t *threads.Thread) {
			for i := 0; i < b.N; i++ {
				t.Yield()
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	return float64(s.Switches())
}

// benchMailbox puts a 64-byte message into a CAB mailbox and takes it out
// again from a CAB thread: one put and one get per op.
func benchMailbox(b *testing.B) float64 {
	k := sim.NewKernel()
	c := cab.NewSized(k, model.Default1990(), 1, 64<<10)
	mb := mailbox.NewRuntime(c).Create("bench")
	c.Sched.Fork("putget", threads.SystemPriority, func(t *threads.Thread) {
		ctx := exec.OnCAB(t)
		for i := 0; i < b.N; i++ {
			mb.EndPut(ctx, mb.BeginPut(ctx, 64))
			mb.EndGet(ctx, mb.BeginGet(ctx))
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	return float64(b.N)
}

var sumSink uint32

func benchSum8K(b *testing.B) float64 {
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i * 31)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sumSink = wire.SumWords(sumSink, data)
	}
	return float64(b.N)
}

var headerSink wire.TCPHeader

// benchTCPHeader marshals and parses one TCP header.
func benchTCPHeader(b *testing.B) float64 {
	var buf [wire.TCPHeaderLen]byte
	h := wire.TCPHeader{SrcPort: 1000, DstPort: 80, Seq: 1, Ack: 2, Flags: wire.TCPAck, Window: 4096}
	for i := 0; i < b.N; i++ {
		h.Seq = uint32(i)
		h.Marshal(buf[:])
		if err := headerSink.Unmarshal(buf[:]); err != nil {
			b.Fatal(err)
		}
	}
	return float64(b.N)
}

var clusterSink *nectar.Cluster

// benchFabricBuild builds the fabric workload's 1,024-host fat tree with
// no node materialized.
func benchFabricBuild(b *testing.B) float64 {
	for i := 0; i < b.N; i++ {
		clusterSink = nectar.NewCluster(&nectar.Config{Topology: fabric.FatTree(fabricK), CABDataBytes: cabBytes})
	}
	clusterSink = nil
	return float64(b.N)
}

// benchSnapshot exports a two-node cluster's metrics.
func benchSnapshot(b *testing.B) float64 {
	cl := nectar.NewCluster(&nectar.Config{CABDataBytes: cabBytes})
	cl.AddNode()
	cl.AddNode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(cl.MetricsSnapshot().Entries) == 0 {
			b.Fatal("empty snapshot")
		}
	}
	return float64(b.N)
}
