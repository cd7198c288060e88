package main

import (
	"flag"
	"fmt"
	"io"

	"nectar"
	"nectar/internal/hw/fiber"
	"nectar/internal/obs"
	np "nectar/internal/proto/nectar"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// runStats runs a small three-node workload that exercises the datagram,
// RMP and TCP paths — including a forced RMP timeout and a forced TCP
// retransmission — and prints the cluster-wide metrics snapshot from the
// observability registry.
func runStats(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	format := fs.String("format", "json", "output format: json | table")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	switch *format {
	case "json", "table":
	default:
		return fmt.Errorf("%w: unknown -format %q (want json or table)", errUsage, *format)
	}

	cl := nectar.NewCluster(nil)
	a := cl.AddNode()
	b := cl.AddNode()
	c := cl.AddNode() // silent third node: target of the forced RMP timeout

	// failed records a check that failed inside a simulated thread; the
	// thread then ends its phase so drive returns it.
	var failed error
	drive := func(done *bool, what string) error {
		for !*done {
			if err := cl.RunFor(10 * sim.Millisecond); err != nil {
				return err
			}
			if cl.Now() > sim.Time(30*sim.Second) {
				return fmt.Errorf("%s did not complete", what)
			}
		}
		return failed
	}

	// Phase 1: host-to-host datagrams.
	const datagrams = 8
	sink := b.Mailboxes.Create("stats.sink")
	addrSink := wire.MailboxAddr{Node: b.ID, Box: sink.ID()}
	p1 := false
	b.Host.Run("dg-receiver", func(t *threads.Thread) {
		ctx := exec.OnHost(t, b.Host)
		for i := 0; i < datagrams; i++ {
			m := sink.BeginGet(ctx)
			sink.EndGet(ctx, m)
		}
		p1 = true
	})
	a.Host.Run("dg-sender", func(t *threads.Thread) {
		ctx := exec.OnHost(t, a.Host)
		for i := 0; i < datagrams; i++ {
			a.Transports.Datagram.Send(ctx, addrSink, 0, []byte{byte(i), 1, 2, 3}, nil)
		}
	})
	if err := drive(&p1, "datagram phase"); err != nil {
		return err
	}

	// Phase 2: an RMP send to a dead peer — every transmission is lost, so
	// the sender exhausts its retries and reports StatusTimeout — followed
	// by a successful send to the live receiver (a separate peer, so its
	// stop-and-wait sequence stream is unaffected by the loss).
	a.CAB.OutLink().SetFaultFn(fiber.DropThenCorrupt(np.MaxRetries+1, 0))
	deadAddr := wire.MailboxAddr{Node: c.ID, Box: sink.ID()}
	p2 := false
	a.Host.Run("rmp-sender", func(t *threads.Thread) {
		defer func() { p2 = true }()
		ctx := exec.OnHost(t, a.Host)
		st := a.Syncs.Alloc(ctx)
		a.Transports.RMP.Send(ctx, deadAddr, 0, []byte("lost"), st)
		if got := st.Read(ctx); got != np.StatusTimeout {
			failed = fmt.Errorf("rmp: status %d, want timeout (%d)", got, np.StatusTimeout)
			return
		}
		st2 := a.Syncs.Alloc(ctx)
		a.Transports.RMP.Send(ctx, addrSink, 0, []byte("ok"), st2)
		if got := st2.Read(ctx); got != np.StatusOK {
			failed = fmt.Errorf("rmp: status %d, want ok (%d)", got, np.StatusOK)
		}
	})
	b.Host.Run("rmp-receiver", func(t *threads.Thread) {
		ctx := exec.OnHost(t, b.Host)
		m := sink.BeginGet(ctx)
		sink.EndGet(ctx, m)
	})
	if err := drive(&p2, "rmp phase"); err != nil {
		return err
	}

	// Phase 3: a TCP transfer with the first data segment dropped, so the
	// connection recovers by RTO retransmission.
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	p3 := false
	ln, err := b.TCP.Listen(7)
	if err != nil {
		return err
	}
	b.CAB.Sched.Fork("tcp-server", threads.AppPriority, func(t *threads.Thread) {
		ctx := exec.OnCAB(t)
		c := ln.Accept(ctx)
		got := 0
		for got < len(payload) {
			m := c.Recv(ctx)
			if m == nil {
				break
			}
			got += m.Len()
			c.RecvDone(ctx, m)
		}
		c.Close(ctx)
	})
	a.CAB.Sched.Fork("tcp-client", threads.AppPriority, func(t *threads.Thread) {
		ctx := exec.OnCAB(t)
		defer func() { p3 = true }()
		c, err := a.TCP.Connect(ctx, b.IP.Addr(), 7)
		if err != nil {
			failed = err
			return
		}
		a.CAB.OutLink().SetFaultFn(fiber.DropThenCorrupt(1, 0)) // lose the first data segment
		c.Send(ctx, payload)
		c.Close(ctx)
	})
	if err := drive(&p3, "tcp phase"); err != nil {
		return err
	}

	snap := cl.MetricsSnapshot()
	if snap.Value(obs.LayerTCP, "retransmits", a.CAB.Scope()) == 0 {
		return fmt.Errorf("tcp: fault injection produced no retransmission")
	}

	if *format == "json" {
		stdout.Write(snap.JSON())
		fmt.Fprintln(stdout)
		return nil
	}
	fmt.Fprint(stdout, snap.Table())
	return nil
}
