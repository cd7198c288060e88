package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"

	"nectar"
	"nectar/internal/fabric"
	nproto "nectar/internal/proto/nectar"
	"nectar/internal/proto/tcp"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// workload is one benchmark input set: a unit function the harness calls
// once per unit, and how a run of it is sized.
type workload struct {
	name string
	unit func(u *unit)
	// rerun, when set, is run untimed on every rerunEvery-th unit of a
	// run's first pass and must reproduce the unit's digest byte for byte.
	rerun func(u *unit)
	// units is how many units a run of runSeconds makes; -seconds S scales
	// it in proportion. The count depends on S alone, so two runs of one
	// commit do identical work.
	units int
	// perProcess is how many units one unit process runs; see measureAll.
	perProcess int
}

const (
	rerunEvery = 10
	// cabBytes is every CAB's packet memory. The default 1 MB would make
	// each abandoned two-node cluster retain over 2 MB; no workload here
	// holds more than a few frames per node at a time.
	cabBytes = 256 << 10
)

// workloads each stress layers the others bypass; README.md tabulates
// which layer each one exercises.
var workloads = []*workload{
	// Per-message overhead: small echoes over every transport, CAB-CAB
	// and host-host.
	{name: "rtt", unit: rttUnit, units: 120, perProcess: 20},
	// Per-byte layers: 64 KB streams at 1-8 KB messages.
	{name: "stream", unit: streamUnit, units: 180, perProcess: 20},
	// Recovery paths: stream's CAB-CAB phases over faulty fibers.
	{name: "lossy", unit: lossyUnit, units: 320, perProcess: 20},
	// The coupling scheduler: the only workload on more than one kernel.
	{name: "pdes", unit: func(u *unit) { pdesUnit(u, 2) }, rerun: func(u *unit) { pdesUnit(u, 1) },
		units: 120, perProcess: 10},
	// Set-up: a 1,024-host fabric built per unit, with little traffic. Its
	// processes are shorter because each unit leaves 8 MB live (README).
	{name: "fabric", unit: fabricUnit, units: 120, perProcess: 6},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// unitCount is the number of units a run of the given length makes, each
// executed passes times. At the benchmark's run length every workload
// makes at least 120, so that run_ms_p90 has 12 units beyond it.
func (w *workload) unitCount(seconds int) int {
	return max(int(math.Ceil(float64(w.units*seconds)/runSeconds)), 1)
}

// --- inputs ---

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

// logUniformSizes splits total bytes into message sizes drawn log-uniform
// over [lo, hi]; the last message takes the remainder.
func logUniformSizes(rng *rand.Rand, total, lo, hi int) []int {
	var sizes []int
	for left := total; left > 0; {
		s := int(math.Exp(math.Log(float64(lo)) + rng.Float64()*(math.Log(float64(hi))-math.Log(float64(lo)))))
		s = min(max(s, lo), left)
		sizes = append(sizes, s)
		left -= s
	}
	return sizes
}

// recvMsg takes the next message from box and returns its bytes: in place
// on a CAB, copied across the VME bus into buf on a host (polling, the
// paper's low-latency host receive path).
func recvMsg(ctx exec.Context, box *mailbox.Mailbox, buf []byte) (*mailbox.Msg, []byte) {
	if ctx.IsHost() {
		m := box.BeginGetPoll(ctx)
		n := m.Len()
		m.Read(ctx, 0, buf[:n])
		return m, buf[:n]
	}
	m := box.BeginGet(ctx)
	return m, m.Data()
}

// spawn forks fn as a CAB thread or a host process on node n.
func spawn(n *nectar.Node, host bool, name string, fn func(ctx exec.Context)) {
	if host {
		n.Host.Run(name, func(t *threads.Thread) { fn(exec.OnHost(t, n.Host)) })
		return
	}
	n.CAB.Sched.Fork(name, threads.SystemPriority, func(t *threads.Thread) { fn(exec.OnCAB(t)) })
}

func sideName(host bool) string {
	if host {
		return "host-host"
	}
	return "CAB-CAB"
}

// --- rtt ---

const (
	rttWarmup = 2
	rttTimed  = 12
	rttEchoes = rttWarmup + rttTimed
)

var echoProtos = [...]string{"datagram", "rmp", "rrp", "udp"}

// echoSide is one side (CAB-CAB or host-host) of an rtt unit: a client on
// node a echoes rttEchoes payloads off a server on node b for each
// protocol in turn, waiting for every reply before sending the next.
type echoSide struct {
	host     bool
	payloads [len(echoProtos)][][]byte
	rtt      [len(echoProtos)][]sim.Duration
	replies  int
	bad      string
	done     bool
}

func (s *echoSide) mismatch(format string, args ...any) {
	if s.bad == "" {
		s.bad = fmt.Sprintf(format, args...)
	}
}

func rttUnit(u *unit) {
	var cl *nectar.Cluster
	var a, b *nectar.Node
	u.setup(func() {
		cl = nectar.NewCluster(&nectar.Config{CABDataBytes: cabBytes})
		a, b = cl.AddNode(), cl.AddNode()
	})
	var sides [2]*echoSide
	for i, host := range []bool{false, true} {
		u.setup(func() { sides[i] = wireEcho(u, a, b, host, uint16(i)) })
		u.run(cl, func() bool { return sides[i].done })
	}
	u.check(cl, func() {
		for _, s := range sides {
			if s.bad != "" {
				u.failf("%s: %s", sideName(s.host), s.bad)
			}
			want := len(echoProtos) * rttEchoes
			if s.replies != want {
				u.failf("%s: %d echoes completed, want %d", sideName(s.host), s.replies, want)
			}
			for p, name := range echoProtos {
				u.record("rtt %s %s %v", sideName(s.host), name, s.rtt[p])
				for _, pl := range s.payloads[p] {
					u.PayloadBytes += 2 * len(pl)
					if name == "udp" {
						u.Checksummed += 4 * len(pl) // UDP checksums on send and receive, both ways
					}
				}
			}
			u.Msgs += 2 * s.replies
		}
	})
}

// wireEcho creates the mailboxes, sockets, echo servers and client of one
// rtt side. port separates the two sides' UDP sockets.
func wireEcho(u *unit, a, b *nectar.Node, host bool, port uint16) *echoSide {
	s := &echoSide{host: host}
	for p := range echoProtos {
		for i := 0; i < rttEchoes; i++ {
			s.payloads[p] = append(s.payloads[p], randomBytes(u.rng, 4+u.rng.IntN(253)))
		}
	}
	side := sideName(host)
	svc := [3]*mailbox.Mailbox{}
	reply := [3]*mailbox.Mailbox{}
	for p := 0; p < 3; p++ {
		svc[p] = b.Mailboxes.Create(side + "." + echoProtos[p] + ".svc")
		reply[p] = a.Mailboxes.Create(side + "." + echoProtos[p] + ".reply")
	}
	sa, err := a.UDP.Bind(1000 + port)
	if err != nil {
		u.failf("bind: %v", err)
		return s
	}
	sb, err := b.UDP.Bind(2000 + port)
	if err != nil {
		u.failf("bind: %v", err)
		return s
	}

	// Servers: each echoes exactly rttEchoes messages and exits.
	spawn(b, host, "dg.echo", func(ctx exec.Context) {
		buf := make([]byte, wire.MaxPayload)
		to := reply[0].Addr()
		for i := 0; i < rttEchoes; i++ {
			m, data := recvMsg(ctx, svc[0], buf)
			if ctx.IsHost() {
				svc[0].EndGet(ctx, m)
				b.Transports.Datagram.Send(ctx, to, svc[0].ID(), data, nil)
				continue
			}
			if err := b.Transports.Datagram.SendDirect(ctx, to, svc[0].ID(), data); err != nil {
				s.mismatch("datagram echo: %v", err)
			}
			svc[0].EndGet(ctx, m)
		}
	})
	spawn(b, host, "rmp.echo", func(ctx exec.Context) {
		buf := make([]byte, wire.MaxPayload)
		to := reply[1].Addr()
		for i := 0; i < rttEchoes; i++ {
			m, data := recvMsg(ctx, svc[1], buf)
			if ctx.IsHost() {
				svc[1].EndGet(ctx, m)
				b.Transports.RMP.Send(ctx, to, svc[1].ID(), data, nil)
				continue
			}
			if st := b.Transports.RMP.SendBlocking(ctx, to, svc[1].ID(), data); st != nproto.StatusOK {
				s.mismatch("rmp echo: status %d", st)
			}
			svc[1].EndGet(ctx, m)
		}
	})
	spawn(b, host, "rrp.server", func(ctx exec.Context) {
		buf := make([]byte, wire.MaxPayload)
		for i := 0; i < rttEchoes; i++ {
			m, data := recvMsg(ctx, svc[2], buf)
			b.Transports.RRP.Reply(ctx, m, data)
			svc[2].EndGet(ctx, m)
		}
	})
	spawn(b, host, "udp.echo", func(ctx exec.Context) {
		buf := make([]byte, wire.MaxPayload)
		for i := 0; i < rttEchoes; i++ {
			var m *mailbox.Msg
			var data []byte
			if ctx.IsHost() {
				m = sb.RecvPoll(ctx)
				n := m.Len()
				m.Read(ctx, 0, buf[:n])
				data = buf[:n]
			} else {
				m = sb.Recv(ctx)
				data = m.Data()
			}
			if err := sb.SendTo(ctx, wire.NodeIP(a.ID), 1000+port, data); err != nil {
				s.mismatch("udp echo: %v", err)
			}
			sb.Done(ctx, m)
		}
	})

	// Client: one protocol after another, one echo at a time.
	spawn(a, host, "client", func(ctx exec.Context) {
		buf := make([]byte, wire.MaxPayload)
		check := func(p, i int, got []byte) {
			if !bytes.Equal(got, s.payloads[p][i]) {
				s.mismatch("%s echo %d: reply differs from request", echoProtos[p], i)
			}
			s.replies++
		}
		send := [len(echoProtos)]func(p []byte){
			func(pl []byte) {
				if ctx.IsHost() {
					a.Transports.Datagram.Send(ctx, svc[0].Addr(), reply[0].ID(), pl, nil)
				} else if err := a.Transports.Datagram.SendDirect(ctx, svc[0].Addr(), reply[0].ID(), pl); err != nil {
					s.mismatch("datagram: %v", err)
				}
			},
			func(pl []byte) {
				if ctx.IsHost() {
					a.Transports.RMP.Send(ctx, svc[1].Addr(), reply[1].ID(), pl, nil)
				} else if st := a.Transports.RMP.SendBlocking(ctx, svc[1].Addr(), reply[1].ID(), pl); st != nproto.StatusOK {
					s.mismatch("rmp: status %d", st)
				}
			},
			func(pl []byte) {
				st := a.Syncs.Alloc(ctx)
				a.Transports.RRP.Call(ctx, svc[2].Addr(), pl, reply[2], st)
				if v := st.Read(ctx); v != nproto.StatusOK {
					s.mismatch("rrp: status %d", v)
				}
			},
			func(pl []byte) {
				if err := sa.SendTo(ctx, wire.NodeIP(b.ID), 2000+port, pl); err != nil {
					s.mismatch("udp: %v", err)
				}
			},
		}
		for p := range echoProtos {
			for i, pl := range s.payloads[p] {
				start := ctx.Now()
				send[p](pl)
				if p < 3 {
					m, got := recvMsg(ctx, reply[p], buf)
					check(p, i, got)
					reply[p].EndGet(ctx, m)
				} else {
					var m *mailbox.Msg
					if ctx.IsHost() {
						m = sa.RecvPoll(ctx)
						n := m.Len()
						m.Read(ctx, 0, buf[:n])
						check(p, i, buf[:n])
					} else {
						m = sa.Recv(ctx)
						check(p, i, m.Data())
					}
					sa.Done(ctx, m)
				}
				if i >= rttWarmup {
					s.rtt[p] = append(s.rtt[p], sim.Duration(ctx.Now()-start))
				}
			}
		}
		s.done = true
	})
	return s
}

// --- stream and lossy ---

// streamPhase is one one-way transfer of a payload cut into messages.
type streamPhase struct {
	name    string
	payload []byte
	sizes   []int
	got     []byte // TCP: the received byte stream
	msgs    int    // RMP: messages received intact and in order
	bad     string
	start   sim.Time
	end     sim.Time
	done    bool
}

func (ph *streamPhase) mismatch(format string, args ...any) {
	if ph.bad == "" {
		ph.bad = fmt.Sprintf(format, args...)
	}
}

// verify checks the phase's delivery invariants and records its results.
func (ph *streamPhase) verify(u *unit, isTCP, checksum bool) {
	if ph.bad != "" {
		u.failf("%s: %s", ph.name, ph.bad)
	}
	if isTCP {
		if !bytes.Equal(ph.got, ph.payload) {
			u.failf("%s: received %d bytes, want the %d sent", ph.name, len(ph.got), len(ph.payload))
		}
		if checksum {
			u.Checksummed += 2 * len(ph.payload)
		}
	} else if ph.msgs != len(ph.sizes) {
		u.failf("%s: %d messages delivered in order, want %d", ph.name, ph.msgs, len(ph.sizes))
	}
	u.Msgs += len(ph.sizes)
	u.PayloadBytes += len(ph.payload)
	u.record("%s sizes=%v start=%d end=%d", ph.name, ph.sizes, ph.start.Nanos(), ph.end.Nanos())
}

const streamBytes = 64 << 10

func newStreamPhase(u *unit, name string, lo, hi int) *streamPhase {
	return &streamPhase{
		name:    name,
		payload: randomBytes(u.rng, streamBytes),
		sizes:   logUniformSizes(u.rng, streamBytes, lo, hi),
	}
}

// wireTCP sets up one TCP transfer from a to b on port. On hosts the
// connection is opened by CAB threads and handed to host processes, as in
// the paper's host-level interfaces. armed, when non-nil, is raised once
// the connection is up and lowered when the receiver has everything.
func wireTCP(u *unit, a, b *nectar.Node, ph *streamPhase, port uint16, host, checksum bool, armed *bool) {
	a.TCP.SetChecksum(checksum)
	b.TCP.SetChecksum(checksum)
	ln, err := b.TCP.Listen(port)
	if err != nil {
		u.failf("%s: listen: %v", ph.name, err)
		return
	}
	receive := func(ctx exec.Context, c *tcp.Conn) {
		buf := make([]byte, wire.MaxPayload)
		for len(ph.got) < len(ph.payload) {
			var m *mailbox.Msg
			if ctx.IsHost() {
				m = c.RecvPoll(ctx)
			} else {
				m = c.Recv(ctx)
			}
			if m == nil {
				ph.mismatch("connection closed after %d bytes", len(ph.got))
				break
			}
			if ctx.IsHost() {
				n := m.Len()
				m.Read(ctx, 0, buf[:n])
				ph.got = append(ph.got, buf[:n]...)
			} else {
				ph.got = append(ph.got, m.Data()...)
			}
			c.RecvDone(ctx, m)
		}
		ph.end = ctx.Now()
		if armed != nil {
			*armed = false
		}
		ph.done = true
	}
	send := func(ctx exec.Context, c *tcp.Conn) {
		ph.start = ctx.Now()
		off := 0
		for _, n := range ph.sizes {
			c.Send(ctx, ph.payload[off:off+n])
			off += n
		}
	}
	spawn(b, false, "accept", func(ctx exec.Context) {
		c := ln.Accept(ctx)
		if !host {
			receive(ctx, c)
			return
		}
		spawn(b, true, "receive", func(ctx exec.Context) { receive(ctx, c) })
	})
	spawn(a, false, "connect", func(ctx exec.Context) {
		c, err := a.TCP.Connect(ctx, wire.NodeIP(b.ID), port)
		if err != nil {
			ph.mismatch("connect: %v", err)
			ph.done = true
			return
		}
		if armed != nil {
			*armed = true
		}
		if !host {
			send(ctx, c)
			return
		}
		spawn(a, true, "send", func(ctx exec.Context) { send(ctx, c) })
	})
}

// wireRMP sets up one RMP transfer from a to b: the receiver checks every
// message against the payload slice it must carry, which checks order,
// integrity and exactly-once delivery together.
func wireRMP(a, b *nectar.Node, ph *streamPhase, host bool) {
	sink := b.Mailboxes.Create(ph.name)
	sink.SetCapacity(wire.MaxPayload * 4)
	addr := sink.Addr()
	spawn(b, host, "drain", func(ctx exec.Context) {
		buf := make([]byte, wire.MaxPayload)
		off := 0
		for i, n := range ph.sizes {
			m, got := recvMsg(ctx, sink, buf)
			if !bytes.Equal(got, ph.payload[off:off+n]) {
				ph.mismatch("message %d out of order or corrupted", i)
			} else {
				ph.msgs++
			}
			sink.EndGet(ctx, m)
			off += n
		}
		ph.end = ctx.Now()
		ph.done = true
	})
	spawn(a, host, "blast", func(ctx exec.Context) {
		ph.start = ctx.Now()
		off := 0
		for i, n := range ph.sizes {
			msg := ph.payload[off : off+n]
			off += n
			if ctx.IsHost() {
				a.Transports.RMP.Send(ctx, addr, 0, msg, nil)
			} else if st := a.Transports.RMP.SendBlocking(ctx, addr, 0, msg); st != nproto.StatusOK {
				ph.mismatch("send %d: status %d", i, st)
			}
		}
	})
}

type streamSpec struct {
	name          string
	tcp, checksum bool
	host          bool
}

var streamSpecs = []streamSpec{
	{"tcp/CAB-CAB", true, true, false},
	{"tcp-nocsum/CAB-CAB", true, false, false},
	{"rmp/CAB-CAB", false, false, false},
	{"tcp/host-host", true, true, true},
	{"tcp-nocsum/host-host", true, false, true},
	{"rmp/host-host", false, false, true},
}

func streamUnit(u *unit) {
	runStreams(u, streamSpecs, 1024, 8192, nil)
}

// lossySpecs are stream's CAB-CAB TCP/IP and RMP phases.
var lossySpecs = []streamSpec{streamSpecs[0], streamSpecs[2]}

func lossyUnit(u *unit) {
	runStreams(u, lossySpecs, 256, 4096, &faults{rng: rand.New(rand.NewPCG(u.rng.Uint64(), u.rng.Uint64()))})
}

// runStreams runs one transfer per spec on a fresh two-node cluster, one
// after another. With f set, both CAB uplinks drop and corrupt frames.
func runStreams(u *unit, specs []streamSpec, lo, hi int, f *faults) {
	var cl *nectar.Cluster
	var a, b *nectar.Node
	u.setup(func() {
		cl = nectar.NewCluster(&nectar.Config{CABDataBytes: cabBytes})
		a, b = cl.AddNode(), cl.AddNode()
		if f != nil {
			a.CAB.OutLink().SetFaultFn(f.fn)
			b.CAB.OutLink().SetFaultFn(f.fn)
		}
	})
	phases := make([]*streamPhase, len(specs))
	for i, sp := range specs {
		u.setup(func() {
			phases[i] = newStreamPhase(u, sp.name, lo, hi)
			if sp.tcp {
				var armed *bool
				if f != nil {
					armed = &f.armed
				}
				wireTCP(u, a, b, phases[i], uint16(80+i), sp.host, sp.checksum, armed)
			} else {
				if f != nil {
					f.armed = true
				}
				wireRMP(a, b, phases[i], sp.host)
			}
		})
		u.run(cl, func() bool { return phases[i].done })
		if f != nil {
			f.armed = false
		}
	}
	u.check(cl, func() {
		for i, sp := range specs {
			phases[i].verify(u, sp.tcp, sp.checksum)
		}
		if f != nil {
			u.record("faults dropped=%d corrupted=%d", f.dropped, f.corrupted)
		}
	})
}

// faults drops and corrupts frames with one shared budget across every
// link it is installed on: after 3 faults, 4 frames pass untouched, enough
// for a data frame and its acknowledgment, so no RMP message can exhaust
// its retries (a lost frame in either direction fails an attempt).
type faults struct {
	rng                *rand.Rand
	armed              bool
	streak, forced     int
	dropped, corrupted int
}

func (f *faults) fn(uint64) (drop, corrupt bool) {
	if !f.armed {
		return false, false
	}
	if f.streak >= 3 {
		f.forced++
		if f.forced >= 4 {
			f.streak, f.forced = 0, 0
		}
		return false, false
	}
	switch f.rng.IntN(50) {
	case 0, 1, 2:
		f.streak++
		f.dropped++
		return true, false
	case 3, 4:
		f.streak++
		f.corrupted++
		return false, true
	}
	return false, false
}

// --- pdes ---

const (
	pdesNodes   = 8
	pdesPerFlow = 192
	pdesMsgSize = 1024
)

// flowResult is what one RMP flow's receiver saw. Under sharded execution
// each flow's threads run on one shard goroutine, and the harness reads the
// result only after RunFor has joined the shards.
type flowResult struct {
	delivered int
	bad       string
	end       sim.Time
	done      bool
}

// wireFlow starts a flow of n tagged messages of size bytes from src to
// dst. Every message carries its index in its first two bytes over a
// seeded base payload, so the receiver checks order and integrity.
func wireFlow(u *unit, src, dst *nectar.Node, name string, n, size int, r *flowResult) {
	base := randomBytes(u.rng, size)
	sink := dst.Mailboxes.Create(name)
	sink.SetCapacity(wire.MaxPayload * 4)
	addr := sink.Addr()
	spawn(dst, false, "drain", func(ctx exec.Context) {
		for i := 0; i < n; i++ {
			m := sink.BeginGet(ctx)
			d := m.Data()
			if len(d) != size || int(d[0])<<8|int(d[1]) != i&0xffff || !bytes.Equal(d[2:], base[2:]) {
				if r.bad == "" {
					r.bad = fmt.Sprintf("message %d out of order or corrupted", i)
				}
			} else {
				r.delivered++
			}
			sink.EndGet(ctx, m)
		}
		r.end = ctx.Now()
		r.done = true
	})
	spawn(src, false, "blast", func(ctx exec.Context) {
		msg := append([]byte(nil), base...)
		for i := 0; i < n; i++ {
			msg[0], msg[1] = byte(i>>8), byte(i)
			if st := src.Transports.RMP.SendBlocking(ctx, addr, 0, msg); st != nproto.StatusOK && r.bad == "" {
				r.bad = fmt.Sprintf("send %d: status %d", i, st)
			}
		}
	})
}

// pdesUnit runs 4 declared RMP flows between seeded node pairs, with
// alternating directions, on the given number of shards (flow-affinity
// partition).
func pdesUnit(u *unit, shards int) {
	perm := u.rng.Perm(pdesNodes)
	flows := make([][2]int, pdesNodes/2)
	for f := range flows {
		flows[f] = [2]int{perm[2*f], perm[2*f+1]}
		if f%2 == 1 {
			flows[f] = [2]int{perm[2*f+1], perm[2*f]}
		}
	}
	var cl *nectar.Cluster
	results := make([]flowResult, len(flows))
	u.setup(func() {
		cfg := nectar.Config{Flows: flows, CABDataBytes: cabBytes}
		if shards > 1 {
			cfg.Shards = shards
			cfg.ShardOf = nectar.ShardByFlows(pdesNodes, shards, flows)
		}
		cl = nectar.NewCluster(&cfg)
		nodes := make([]*nectar.Node, pdesNodes)
		for i := range nodes {
			nodes[i] = cl.AddNode()
		}
		for f, fl := range flows {
			wireFlow(u, nodes[fl[0]], nodes[fl[1]], fmt.Sprintf("pdes.flow%d", f), pdesPerFlow, pdesMsgSize, &results[f])
		}
	})
	u.run(cl, func() bool {
		for i := range results {
			if !results[i].done {
				return false
			}
		}
		return true
	})
	u.check(cl, func() { verifyFlows(u, flows, results, pdesPerFlow, pdesMsgSize) })
}

func verifyFlows(u *unit, flows [][2]int, results []flowResult, n, size int) {
	for f, r := range results {
		if r.bad != "" {
			u.failf("flow %d: %s", f, r.bad)
		}
		if r.delivered != n {
			u.failf("flow %d: %d of %d messages delivered", f, r.delivered, n)
		}
		u.Msgs += r.delivered
		u.PayloadBytes += r.delivered * size
		u.record("flow %d %d->%d end=%d", f, flows[f][0], flows[f][1], r.end.Nanos())
	}
}

// --- fabric ---

const (
	fabricK       = 16
	fabricFlows   = 8
	fabricPerFlow = 8
	fabricMsgSize = 1024
)

// crossPodFlows draws n flows between distinct attachment points in
// different pods of a k-ary fat tree.
func crossPodFlows(rng *rand.Rand, k, n int) [][2]int {
	hosts := k * k * k / 4
	perPod := hosts / k
	used := map[int]bool{}
	pick := func(avoidPod int) int {
		for {
			h := rng.IntN(hosts)
			if !used[h] && h/perPod != avoidPod {
				used[h] = true
				return h
			}
		}
	}
	flows := make([][2]int, n)
	for f := range flows {
		src := pick(-1)
		flows[f] = [2]int{src, pick(src / perPod)}
	}
	return flows
}

func fabricUnit(u *unit) {
	flows := crossPodFlows(u.rng, fabricK, fabricFlows)
	var cl *nectar.Cluster
	u.setup(func() {
		cl = nectar.NewCluster(&nectar.Config{
			Topology:     fabric.FatTree(fabricK),
			Flows:        flows,
			CABDataBytes: cabBytes,
		})
		for _, f := range flows {
			cl.Node(f[0])
			cl.Node(f[1])
		}
	})
	results := make([]flowResult, len(flows))
	for i, f := range flows {
		u.setup(func() {
			wireFlow(u, cl.Node(f[0]), cl.Node(f[1]), fmt.Sprintf("fabric.flow%d", i), fabricPerFlow, fabricMsgSize, &results[i])
		})
		u.run(cl, func() bool { return results[i].done })
	}
	u.check(cl, func() { verifyFlows(u, flows, results, fabricPerFlow, fabricMsgSize) })
}
