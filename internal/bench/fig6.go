package bench

import (
	"fmt"

	"nectar"
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// Fig6Stage is one segment of the one-way latency breakdown.
type Fig6Stage struct {
	Name string
	US   float64
}

// Fig6Result reproduces the paper's Figure 6: the component breakdown of
// a one-way host-to-host datagram (paper total: 163 µs, split roughly
// 40 % host-CAB interface, 40 % CAB-to-CAB, 20 % host message handling).
type Fig6Result struct {
	Proto   string // transport traced: "datagram" (the paper's) or "rmp"
	TotalUS float64
	Stages  []Fig6Stage
	Metrics *obs.Snapshot // registry snapshot at the end of the run
	// Bucket percentages per the paper's attribution.
	HostPct      float64 // host creating and reading the message
	InterfacePct float64 // host-CAB interface (both sides)
	CABPct       float64 // CAB-to-CAB (protocol processing + wire)
}

// Fig6Anchors are the instants of a one-way exchange that the typed trace
// cannot see, because they bound pure host compute phases, plus the two
// node ids the trace's stage boundaries are looked up on.
type Fig6Anchors struct {
	Start, CreateDone, RxBegin, ReadDone, RxEnd sim.Time
	Sender, Receiver                            int
}

// Fig6 sends one 4-byte datagram host-to-host with the typed trace
// recorded and attributes every microsecond of the one-way path.
func Fig6(cost *model.CostModel) (*Fig6Result, error) {
	if cost == nil {
		cost = model.Default1990()
	}
	cl, a, b := newCluster(cost, false)
	trace := recordTrace(cl)
	an, err := fig6Exchange(cl, a, b, cost)
	if err != nil {
		return nil, err
	}
	res, err := Fig6Attribute("datagram", trace(), an)
	if err != nil {
		return nil, err
	}
	res.Metrics = cl.MetricsSnapshot()
	return res, nil
}

// recordTrace installs a typed-event recorder on every shard kernel of
// cl. The returned function merges the per-shard streams into the
// canonical trace, which is the same for any shard count.
func recordTrace(cl *nectar.Cluster) func() []obs.Event {
	var recs []*obs.Recorder
	for _, k := range cl.Kernels() {
		r := &obs.Recorder{}
		obs.Ensure(k).SetSink(r)
		recs = append(recs, r)
	}
	return func() []obs.Event {
		streams := make([][]obs.Event, len(recs))
		for i, r := range recs {
			streams[i] = r.Events
		}
		return obs.CanonicalTrace(streams...)
	}
}

// fig6Exchange runs Figure 6's workload on a fresh cluster: after the
// runtime boots, a's host creates a 4-byte message and sends it as a
// datagram to a mailbox that b's host polls, reads and releases.
func fig6Exchange(cl *nectar.Cluster, a, b *nectar.Node, cost *model.CostModel) (Fig6Anchors, error) {
	an := Fig6Anchors{Sender: int(a.ID), Receiver: int(b.ID)}
	boxB := b.Mailboxes.Create("sink")
	addrB := wire.MailboxAddr{Node: b.ID, Box: boxB.ID()}
	done := false

	a.Host.Run("sender", func(t *threads.Thread) {
		ctx := exec.OnHost(t, a.Host)
		// Let the runtime boot (protocol threads park) before measuring.
		t.Sleep(5 * sim.Millisecond)
		an.Start = t.Now()
		// The paper's "host creating the message": build the message
		// content, then hand it to the datagram protocol (the two-phase
		// put into mapped CAB memory is host-CAB interface time).
		t.Compute(cost.HostMessageCreate)
		an.CreateDone = t.Now()
		a.Transports.Datagram.Send(ctx, addrB, 0, []byte{1, 2, 3, 4}, nil)
	})
	b.Host.Run("receiver", func(t *threads.Thread) {
		ctx := exec.OnHost(t, b.Host)
		m := boxB.BeginGetPoll(ctx)
		an.RxBegin = t.Now()
		var buf [4]byte
		m.Read(ctx, 0, buf[:])
		t.Compute(cost.HostMessageRead)
		an.ReadDone = t.Now()
		boxB.EndGet(ctx, m)
		an.RxEnd = t.Now()
		done = true
	})
	return an, drive(cl, &done)
}

// Fig6Attribute attributes every microsecond of a one-way host-to-host
// exchange over proto ("datagram" or "rmp") to the paper's 11 stages and
// its three buckets. Each stage boundary on the CABs is the first event of
// its kind in the typed trace at or after an.Start. It is the one
// Figure 6 attribution: nectar-bench fig6 and nectar-obs trace both print
// its result.
func Fig6Attribute(proto string, events []obs.Event, an Fig6Anchors) (*Fig6Result, error) {
	boundaries := []struct {
		node  int
		layer obs.Layer
		name  string
		arg   string
	}{
		{an.Sender, obs.LayerHostIF, "post", ""},
		{an.Sender, obs.LayerHostIF, "cab_isr", ""},
		{an.Sender, obs.LayerMailbox, "get", proto + ".send"},
		{an.Sender, obs.LayerDatalink, "tx", ""},
		{an.Receiver, obs.LayerCAB, "rx.arrive", ""},
		{an.Receiver, obs.LayerDatalink, "rx", ""},
		{an.Receiver, obs.Layer(proto), "deliver", ""},
	}
	at := make([]sim.Time, len(boundaries))
	for i, bd := range boundaries {
		t, ok := firstEvent(events, an.Start, bd.node, bd.layer, bd.name, bd.arg)
		if !ok {
			return nil, fmt.Errorf("fig6: no %s.%s event on node %d in the trace", bd.layer, bd.name, bd.node)
		}
		at[i] = t
	}
	post, isr, req, dltx, arrive, dlrx, deliver := at[0], at[1], at[2], at[3], at[4], at[5], at[6]
	us := func(from, to sim.Time) float64 { return sim.Duration(to - from).Micros() }

	stages := []Fig6Stage{
		{"host: create message", us(an.Start, an.CreateDone)},
		{"host: begin_put/write/end_put", us(an.CreateDone, post)},
		{"host->CAB: doorbell + CAB ISR", us(post, isr)},
		{"CAB1: wake " + proto + " thread", us(isr, req)},
		{"CAB1: transport + datalink out", us(req, dltx)},
		{"wire: fiber + HUB", us(dltx, arrive)},
		{"CAB2: start-of-packet + datalink", us(arrive, dlrx)},
		{"CAB2: DMA + transport deliver", us(dlrx, deliver)},
		{"CAB2->host: signal + poll + begin_get", us(deliver, an.RxBegin)},
		{"host: read message", us(an.RxBegin, an.ReadDone)},
		{"host: end_get", us(an.ReadDone, an.RxEnd)},
	}
	res := &Fig6Result{Proto: proto, TotalUS: us(an.Start, an.RxEnd), Stages: stages}

	// The paper's three buckets: message handling on the hosts; the
	// host-CAB interface on both sides (mailbox ops over the VME bus,
	// doorbells, thread wakeup, polling); CAB-to-CAB (protocol
	// processing, DMA, fiber, HUB).
	host := stages[0].US + stages[9].US
	iface := stages[1].US + stages[2].US + stages[3].US + stages[8].US + stages[10].US
	cab := stages[4].US + stages[5].US + stages[6].US + stages[7].US
	res.HostPct = 100 * host / res.TotalUS
	res.InterfacePct = 100 * iface / res.TotalUS
	res.CABPct = 100 * cab / res.TotalUS
	return res, nil
}

// firstEvent returns the time of the first event at or after from that
// matches node, layer and name, and arg unless arg is empty.
func firstEvent(events []obs.Event, from sim.Time, node int, layer obs.Layer, name, arg string) (sim.Time, bool) {
	for _, e := range events {
		if e.At >= from && e.Node == node && e.Layer == layer && e.Name == name && (arg == "" || e.Arg == arg) {
			return e.At, true
		}
	}
	return 0, false
}

// Format renders the breakdown with the paper anchors.
func (r *Fig6Result) Format() string {
	out := fmt.Sprintf("Figure 6: one-way host-to-host %s latency breakdown\n", r.Proto)
	for _, s := range r.Stages {
		out += fmt.Sprintf("  %-36s %7.1f us\n", s.Name, s.US)
	}
	out += fmt.Sprintf("  %-36s %7.1f us\n", "TOTAL", r.TotalUS)
	out += fmt.Sprintf("  buckets: host %.0f%%, host-CAB interface %.0f%%, CAB-to-CAB %.0f%%\n",
		r.HostPct, r.InterfacePct, r.CABPct)
	out += "paper anchors: total 163 us; ~20% host / ~40% interface / ~40% CAB-to-CAB\n"
	return out
}
