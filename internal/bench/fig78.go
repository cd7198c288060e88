package bench

import (
	"fmt"

	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/proto/tcp"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// messagesFor picks the message count for a sweep point: enough traffic
// to reach steady state, bounded so small-message points stay tractable.
func messagesFor(size int) int {
	n := (256 << 10) / size
	if n < 20 {
		n = 20
	}
	if n > 400 {
		n = 400
	}
	return n
}

// Fig7 reproduces the paper's Figure 7: throughput between two CAB
// threads versus message size, for TCP/IP, TCP without software
// checksums, and the Nectar reliable message protocol. Paper anchors:
// RMP reaches 90 Mbit/s of the 100 Mbit/s fiber at 8 KB; throughput
// doubles with message size up to ~256 B (per-packet overhead dominated);
// the TCP-RMP gap is mostly software checksum cost, so TCP w/o checksum
// is almost as fast as RMP (§6.2).
// Snapshots are keyed "<curve>/<size>".
//
// Each (curve, size) point builds an independent cluster, so the sweep
// runs on the bench worker pool (SetParallelism); results are assembled
// in job-index order, making the tables and snapshot keys byte-identical
// to a sequential run.
func Fig7(cost *model.CostModel, sizes []int) ([]Curve, map[string]*obs.Snapshot, error) {
	if sizes == nil {
		sizes = Sizes1990
	}
	curves := []Curve{{Name: "TCP/IP"}, {Name: "TCP w/o checksum"}, {Name: "RMP"}}
	runners := []func(*model.CostModel, int) (float64, *obs.Snapshot, error){
		func(c *model.CostModel, s int) (float64, *obs.Snapshot, error) { return tcpThroughputCAB(c, s, true) },
		func(c *model.CostModel, s int) (float64, *obs.Snapshot, error) { return tcpThroughputCAB(c, s, false) },
		func(c *model.CostModel, s int) (float64, *obs.Snapshot, error) { return rmpThroughputCAB(c, s, false) },
	}
	return sweep(cost, sizes, curves, runners)
}

// sweep runs every (curve, size) pair as an independent job and assembles
// curves and snapshots deterministically.
func sweep(cost *model.CostModel, sizes []int, curves []Curve,
	runners []func(*model.CostModel, int) (float64, *obs.Snapshot, error)) ([]Curve, map[string]*obs.Snapshot, error) {
	nS := len(sizes)
	vals := make([]float64, len(curves)*nS)
	sns := make([]*obs.Snapshot, len(curves)*nS)
	err := runJobs(len(vals), func(i int) error {
		ci, si := i/nS, i%nS
		v, sn, err := runners[ci](copyCost(cost), sizes[si])
		if err != nil {
			return fmt.Errorf("%s %dB: %w", curves[ci].Name, sizes[si], err)
		}
		vals[i], sns[i] = v, sn
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	snaps := make(map[string]*obs.Snapshot)
	for ci := range curves {
		for si, size := range sizes {
			i := ci*nS + si
			curves[ci].Points = append(curves[ci].Points, Point{size, vals[i]})
			snaps[fmt.Sprintf("%s/%d", curves[ci].Name, size)] = sns[i]
		}
	}
	return curves, snaps, nil
}

// Fig8 reproduces the paper's Figure 8: throughput between two host
// processes versus message size, for TCP/IP and RMP. Paper anchors: both
// curves are limited by the ~30 Mbit/s VME bus (TCP ~24, RMP ~28), and
// they flatten earlier than the CAB-to-CAB curves of Figure 7 because the
// slow bus makes transmission time significant sooner (§6.3).
// Snapshots are keyed "<curve>/<size>". Sweep points run on the bench
// worker pool like Fig7's.
func Fig8(cost *model.CostModel, sizes []int) ([]Curve, map[string]*obs.Snapshot, error) {
	if sizes == nil {
		sizes = Sizes1990
	}
	curves := []Curve{{Name: "TCP/IP"}, {Name: "RMP"}}
	runners := []func(*model.CostModel, int) (float64, *obs.Snapshot, error){
		tcpThroughputHost,
		rmpThroughputHost,
	}
	return sweep(cost, sizes, curves, runners)
}

// rmpThroughputCAB streams messages between CAB threads over RMP.
// rxThread moves protocol input processing into a high-priority thread
// (ablation A1).
func rmpThroughputCAB(cost *model.CostModel, size int, rxThread bool) (float64, *obs.Snapshot, error) {
	cl, a, b := newCluster(cost, rxThread)
	n := messagesFor(size)
	box := b.Mailboxes.Create("sink")
	box.SetCapacity(wire.MaxPayload * 4)
	addr := wire.MailboxAddr{Node: b.ID, Box: box.ID()}
	done := false
	var start, end sim.Time

	b.CAB.Sched.Fork("drain", threads.SystemPriority, func(t *threads.Thread) {
		ctx := exec.OnCAB(t)
		for i := 0; i < n; i++ {
			m := box.BeginGet(ctx)
			box.EndGet(ctx, m)
		}
		end = t.Now()
		done = true
	})
	a.CAB.Sched.Fork("blast", threads.SystemPriority, func(t *threads.Thread) {
		ctx := exec.OnCAB(t)
		buf := make([]byte, size)
		start = t.Now()
		for i := 0; i < n; i++ {
			if st := a.Transports.RMP.SendBlocking(ctx, addr, 0, buf); st != 1 {
				cl.K.Fatalf("rmp status %d", st)
			}
		}
	})
	if err := drive(cl, &done); err != nil {
		return 0, nil, err
	}
	return mbps(n*size, sim.Duration(end-start)), cl.MetricsSnapshot(), nil
}

// tcpThroughputCAB streams messages between CAB threads over TCP.
func tcpThroughputCAB(cost *model.CostModel, size int, checksum bool) (float64, *obs.Snapshot, error) {
	cl, a, b := newCluster(cost, false)
	a.TCP.SetChecksum(checksum)
	b.TCP.SetChecksum(checksum)
	n := messagesFor(size)
	total := n * size
	done := false
	var start, end sim.Time

	ln, err := b.TCP.Listen(80)
	if err != nil {
		return 0, nil, err
	}
	b.CAB.Sched.Fork("server", threads.SystemPriority, func(t *threads.Thread) {
		ctx := exec.OnCAB(t)
		c := ln.Accept(ctx)
		got := 0
		for got < total {
			m := c.Recv(ctx)
			if m == nil {
				break
			}
			got += m.Len()
			c.RecvDone(ctx, m)
		}
		end = t.Now()
		done = true
	})
	a.CAB.Sched.Fork("client", threads.SystemPriority, func(t *threads.Thread) {
		ctx := exec.OnCAB(t)
		c, err := a.TCP.Connect(ctx, wire.NodeIP(b.ID), 80)
		if err != nil {
			cl.K.Fatalf("connect: %v", err)
		}
		buf := make([]byte, size)
		start = t.Now()
		for i := 0; i < n; i++ {
			c.Send(ctx, buf)
		}
	})
	if err := drive(cl, &done); err != nil {
		return 0, nil, err
	}
	return mbps(total, sim.Duration(end-start)), cl.MetricsSnapshot(), nil
}

// rmpThroughputHost streams messages between host processes over RMP
// (requests and data cross the VME bus into the send-request mailbox; the
// receiver polls and reads across its own bus).
func rmpThroughputHost(cost *model.CostModel, size int) (float64, *obs.Snapshot, error) {
	cl, a, b := newCluster(cost, false)
	n := messagesFor(size)
	box := b.Mailboxes.Create("sink")
	box.SetCapacity(wire.MaxPayload * 4)
	addr := wire.MailboxAddr{Node: b.ID, Box: box.ID()}
	done := false
	var start, end sim.Time

	b.Host.Run("drain", func(t *threads.Thread) {
		ctx := exec.OnHost(t, b.Host)
		buf := make([]byte, size)
		for i := 0; i < n; i++ {
			m := box.BeginGetPoll(ctx)
			m.Read(ctx, 0, buf[:m.Len()])
			box.EndGet(ctx, m)
		}
		end = t.Now()
		done = true
	})
	a.Host.Run("blast", func(t *threads.Thread) {
		ctx := exec.OnHost(t, a.Host)
		buf := make([]byte, size)
		start = t.Now()
		for i := 0; i < n; i++ {
			a.Transports.RMP.Send(ctx, addr, 0, buf, nil)
		}
	})
	if err := drive(cl, &done); err != nil {
		return 0, nil, err
	}
	return mbps(n*size, sim.Duration(end-start)), cl.MetricsSnapshot(), nil
}

// tcpThroughputHost streams messages between host processes over TCP.
func tcpThroughputHost(cost *model.CostModel, size int) (float64, *obs.Snapshot, error) {
	cl, a, b := newCluster(cost, false)
	n := messagesFor(size)
	total := n * size
	done := false
	var start, end sim.Time

	// Establish the connection with CAB threads (the paper's host-level
	// interfaces run connection setup through the CAB as well).
	ln, err := b.TCP.Listen(80)
	if err != nil {
		return 0, nil, err
	}
	var connA, connB *tcp.Conn
	setup := false
	b.CAB.Sched.Fork("accept", threads.SystemPriority, func(t *threads.Thread) {
		connB = ln.Accept(exec.OnCAB(t))
	})
	a.CAB.Sched.Fork("connect", threads.SystemPriority, func(t *threads.Thread) {
		var err error
		connA, err = a.TCP.Connect(exec.OnCAB(t), wire.NodeIP(b.ID), 80)
		if err != nil {
			cl.K.Fatalf("connect: %v", err)
		}
		setup = true
	})
	if err := drive(cl, &setup); err != nil {
		return 0, nil, err
	}
	if connB == nil {
		return 0, nil, fmt.Errorf("accept did not complete")
	}

	b.Host.Run("drain", func(t *threads.Thread) {
		ctx := exec.OnHost(t, b.Host)
		got := 0
		buf := make([]byte, wire.MaxPayload)
		for got < total {
			m := connB.RecvPoll(ctx)
			if m == nil {
				break
			}
			m.Read(ctx, 0, buf[:m.Len()])
			got += m.Len()
			connB.RecvDone(ctx, m)
		}
		end = t.Now()
		done = true
	})
	a.Host.Run("blast", func(t *threads.Thread) {
		ctx := exec.OnHost(t, a.Host)
		buf := make([]byte, size)
		start = t.Now()
		for i := 0; i < n; i++ {
			connA.Send(ctx, buf)
		}
	})
	if err := drive(cl, &done); err != nil {
		return 0, nil, err
	}
	return mbps(total, sim.Duration(end-start)), cl.MetricsSnapshot(), nil
}
