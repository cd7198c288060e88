// Package tcp implements the Transmission Control Protocol on the CAB as
// the paper describes (§4.2): the implementation "runs almost entirely in
// system threads, rather than at interrupt time", protecting shared state
// with mutual exclusion locks instead of disabled interrupts. A TCP input
// thread blocks on Begin_Get on the TCP input mailbox, checksums the
// entire packet in software (the cost that separates TCP from RMP in
// Figure 7), performs standard input processing, and passes data to the
// user by deleting the headers in place and Enqueueing the packet into the
// user's receive mailbox. Senders place requests in the TCP send-request
// mailbox — the data staying in mailbox buffers until acknowledged, so
// retransmission needs no copies — or, for CAB-resident senders, call the
// output path directly.
//
// The protocol machine is a faithful-but-compact 1990-era TCP: three-way
// handshake, cumulative acknowledgments, a receiver-advertised sliding
// window, go-back-N retransmission on a fixed timer, and orderly FIN
// teardown. Omissions relative to a modern stack are documented in
// DESIGN.md: no congestion control (the paper's dedicated low-loss fiber
// network predates its relevance here), no SACK, no header options (fixed
// MSS), delayed ACKs off, out-of-order segments dropped rather than
// queued.
package tcp

import (
	"fmt"

	"nectar/internal/obs"
	"nectar/internal/proto/ip"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// Protocol constants.
const (
	// DefaultWindow is the receive window each side advertises — two
	// segments of buffering, so the window throttles only a receiver
	// whose application has genuinely stopped reading; normal flow
	// control comes from the ack-gated sender below.
	DefaultWindow = 16384
	// MSS is the fixed maximum segment size (no options, so it is
	// configured rather than negotiated): Nectar's large MTU lets a full
	// 8 KB experiment message travel as one segment.
	MSS = 8192
	// RTO is the fixed retransmission timeout.
	RTO = 50 * sim.Millisecond
	// ConnectTimeout bounds the three-way handshake.
	ConnectTimeout = 2 * sim.Second
	// TimeWait is the 2*MSL linger (scaled to the LAN's tiny RTTs).
	TimeWait = 100 * sim.Millisecond
	// ephemeralBase is the first ephemeral local port.
	ephemeralBase = 40000
)

// State is a TCP connection state.
type State int

// Connection states.
const (
	Closed State = iota
	Listen
	SynSent
	SynRcvd
	Established
	FinWait1
	FinWait2
	CloseWait
	LastAck
	Closing
	TimeWaitState
)

var stateNames = [...]string{"Closed", "Listen", "SynSent", "SynRcvd",
	"Established", "FinWait1", "FinWait2", "CloseWait", "LastAck", "Closing", "TimeWait"}

func (s State) String() string { return stateNames[s] }

// Sequence-space comparisons (mod 2^32).
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

type connKey struct {
	lport uint16
	rip   uint32
	rport uint16
}

// timerEvent is work queued to the TCP timer thread.
type timerEvent struct {
	c         *Conn
	winUpdate bool // window-update probe rather than an RTO expiry
}

// WindowUpdateInterval paces receiver-side window-update probes while the
// advertised window is closed or nearly closed (the role a sender-side
// persist timer plays in BSD).
const WindowUpdateInterval = sim.Millisecond

// Layer is the TCP instance on one CAB.
type Layer struct {
	ip    *ip.Layer
	rt    *mailbox.Runtime
	inBox *mailbox.Mailbox

	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	nextEphem uint16
	nextISS   uint32

	sendBox *mailbox.Mailbox // the §4.2 TCP send-request mailbox

	// Timer events are handed to a thread so connection state is always
	// mutated under the connection's mutex, never from interrupt handlers
	// (§4.2).
	timers    timers
	timerCond *threads.Cond

	checksum bool // software data checksum on/off (Figure 7 ablation)

	// Counters live in the observability registry (metric layer "tcp",
	// scope "cab<N>").
	segsIn, segsOut, badChecksum, retransmits, drops *obs.Counter
	ackRTT                                           *obs.Histogram // send-to-cumulative-ack latency

	obs  *obs.Observer
	node int
}

// NewLayer installs TCP on an IP layer and starts its input, send and
// timer threads.
func NewLayer(l *ip.Layer, rt *mailbox.Runtime) *Layer {
	t := &Layer{
		ip:        l,
		rt:        rt,
		inBox:     rt.Create("tcp.in"),
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]*Listener),
		nextEphem: ephemeralBase,
		nextISS:   1,
		sendBox:   rt.Create("tcp.sendreq"),
		checksum:  true,
	}
	t.inBox.SetCapacity(256 << 10)
	t.sendBox.SetCapacity(256 << 10)
	t.timerCond = threads.NewCond("tcp.timer")
	t.timers.t = t
	t.inBox.Serve("tcp-input", threads.SystemPriority, t.handleSegment)
	t.sendBox.Serve("tcp-send", threads.SystemPriority, t.sendRequest)
	rt.CAB().Sched.Serve("tcp-timer", threads.SystemPriority, 0, t.timerCond, &t.timers)
	l.Register(wire.ProtoTCP, t)
	t.node = int(rt.CAB().Node())
	t.obs = obs.Ensure(rt.CAB().Kernel())
	m := t.obs.Metrics()
	scope := rt.CAB().Scope()
	t.segsIn = m.Counter(obs.LayerTCP, "segs_in", scope)
	t.segsOut = m.Counter(obs.LayerTCP, "segs_out", scope)
	t.badChecksum = m.Counter(obs.LayerTCP, "bad_checksum", scope)
	t.retransmits = m.Counter(obs.LayerTCP, "retransmits", scope)
	t.drops = m.Counter(obs.LayerTCP, "drops", scope)
	t.ackRTT = m.Histogram(obs.LayerTCP, "ack_rtt", scope)
	return t
}

// SetChecksum enables or disables the software data checksum; the "TCP
// w/o checksum" curve of Figure 7 runs with it off, relying on the CAB's
// hardware CRC exactly as RMP does (§6.2).
func (t *Layer) SetChecksum(on bool) { t.checksum = on }

// InputMailbox implements ip.Upper.
func (t *Layer) InputMailbox() *mailbox.Mailbox { return t.inBox }

// Listener accepts incoming connections on a port.
type Listener struct {
	backlog []*Conn
	cond    *threads.Cond
}

// Listen binds a port for passive opens.
func (t *Layer) Listen(port uint16) (*Listener, error) {
	if _, ok := t.listeners[port]; ok {
		return nil, fmt.Errorf("tcp: port %d already listening", port)
	}
	ln := &Listener{cond: threads.NewCond(fmt.Sprintf("tcp.accept%d", port))}
	t.listeners[port] = ln
	return ln, nil
}

// Accept blocks until a connection completes its handshake. CAB threads
// only (host processes accept through a CAB-resident server in the
// paper's socket emulation; see the netdev level for host-resident TCP).
func (ln *Listener) Accept(ctx exec.Context) *Conn {
	for len(ln.backlog) == 0 {
		ln.cond.Wait(ctx.T)
	}
	c := ln.backlog[0]
	ln.backlog = sim.PopFront(ln.backlog)
	return c
}

// Conn is one TCP connection. Its unacknowledged segments, the FIN among
// them, sit in retransQ by value: the ack path pops each acknowledged one
// and releases the send request its last segment carries, and
// stopRetransmit drops the rest. Both keep the queue's capacity, so a
// warm connection queues a segment without allocating.
type Conn struct {
	layer *Layer
	key   connKey
	state State

	// Send sequence space.
	iss    uint32
	sndUna uint32
	sndNxt uint32
	sndWnd uint32

	// Receive sequence space.
	rcvNxt uint32

	retransQ []txSeg
	rtoTimer sim.Timer
	onRTO    func() // c.rto, built by the first armRTO

	rcvBox     *mailbox.Mailbox // in-order payload for the user
	rcvEOF     bool
	sentFin    bool
	acceptLn   *Listener // pending listener notification (SynRcvd)
	winTimer   sim.Timer // pending window-update probe
	onWinTimer func()    // c.winProbe, built by the first armWindowUpdate
	lastAdvWin uint32    // window advertised in the last transmitted segment

	// mu is held across transmit's compute, so a segment for the
	// connection waits for a send in progress.
	mu   *threads.Mutex
	cond *threads.Cond // state changes, window openings, ack arrivals
	mss  int
	// hdr is the header transmit builds, under mu. IP's output copies it
	// into the frame before it returns, so one per connection serves
	// every segment.
	hdr [wire.TCPHeaderLen]byte
}

// txSeg is an unacknowledged transmitted segment.
type txSeg struct {
	seq    uint32
	data   []byte
	fin    bool
	owner  *mailbox.Msg // send-request message to release when acked
	last   bool         // final segment drawing on owner
	sentAt sim.Time     // first transmission (for the ack_rtt histogram)
}

func (t *Layer) newConn(key connKey) *Conn {
	t.nextISS += 64000
	c := &Conn{
		layer: t, key: key, state: Closed,
		iss:    t.nextISS,
		sndWnd: DefaultWindow,
		rcvBox: t.rt.Create(fmt.Sprintf("tcp.rcv.%d-%d", key.lport, key.rport)),
		mu:     threads.NewMutex(fmt.Sprintf("tcp.conn.%d", key.lport)),
		cond:   threads.NewCond(fmt.Sprintf("tcp.cond.%d", key.lport)),
		mss:    MSS,
	}
	c.rcvBox.SetCapacity(DefaultWindow + 16<<10)
	c.sndUna = c.iss
	c.sndNxt = c.iss
	t.conns[key] = c
	return c
}

// Connect performs an active open to dstIP:dstPort from a CAB thread,
// blocking until the connection is established.
func (t *Layer) Connect(ctx exec.Context, dstIP uint32, dstPort uint16) (*Conn, error) {
	t.nextEphem++
	key := connKey{lport: t.nextEphem, rip: dstIP, rport: dstPort}
	c := t.newConn(key)
	c.mu.Lock(ctx.T)
	c.state = SynSent
	c.sndNxt = c.iss + 1
	if err := c.transmit(ctx, wire.TCPSyn, c.iss, nil); err != nil {
		// IP refused the SYN (e.g. an address off the Nectar network):
		// no retransmission can do better.
		c.state = Closed
		delete(t.conns, key)
		c.mu.Unlock(ctx.T)
		c.rcvBox.Free()
		return nil, fmt.Errorf("tcp: connect to %s:%d: %w", wire.FormatIP(dstIP), dstPort, err)
	}
	c.armRTO()
	for c.state != Established && c.state != Closed {
		if !c.wait(ctx.T, ConnectTimeout) {
			c.state = Closed
			c.stopRetransmit(ctx)
			delete(t.conns, key)
			c.mu.Unlock(ctx.T)
			c.rcvBox.Free()
			return nil, fmt.Errorf("tcp: connect to %s:%d timed out", wire.FormatIP(dstIP), dstPort)
		}
	}
	ok := c.state == Established
	c.mu.Unlock(ctx.T)
	if !ok {
		// The reset queued EOF in the receive mailbox; nobody reads it.
		c.rcvBox.Free()
		return nil, fmt.Errorf("tcp: connect to %s:%d refused", wire.FormatIP(dstIP), dstPort)
	}
	return c, nil
}

// Send queues data for transmission. From a host process the request goes
// through the TCP send-request mailbox (paper §4.2), the data crossing
// the VME bus once into CAB memory; from a CAB thread the segments are
// cut directly ("CAB-resident senders can do this directly without
// involving the TCP send thread").
func (c *Conn) Send(ctx exec.Context, data []byte) {
	if ctx.IsHost() {
		box := c.layer.sendBox
		m := box.BeginPut(ctx, len(data))
		m.Write(ctx, 0, data)
		m.Meta = c
		box.EndPut(ctx, m)
		return
	}
	c.sendData(ctx, data, nil)
}

// sendRequest is the send thread's handler for one send request (paper
// §4.2: "The TCP send thread on the CAB services this request by placing
// the data on the send queue of the appropriate connection and calling
// the TCP output routine").
func (t *Layer) sendRequest(ctx exec.Context, m *mailbox.Msg) {
	c, ok := m.Meta.(*Conn)
	if !ok {
		t.sendBox.EndGet(ctx, m)
		return
	}
	c.sendData(ctx, m.Data(), m)
}

// sendData segments and transmits data, blocking while the send window is
// full. owner (the send-request message holding the bytes) is released
// when its last segment is acknowledged.
func (c *Conn) sendData(ctx exec.Context, data []byte, owner *mailbox.Msg) {
	c.mu.Lock(ctx.T)
	queuedLast := false
	for off := 0; off < len(data); {
		if c.state != Established && c.state != CloseWait {
			break // connection went away; drop the rest
		}
		n := len(data) - off
		if n > c.mss {
			n = c.mss
		}
		// Ack-gated sender: wait for the outstanding segment to be
		// acknowledged and for window room. With one-MSS buffering this
		// is effectively a stop-and-wait sender — true to the era's tiny
		// socket buffers, and the reason the Figure 7 TCP curves track
		// below RMP with the software checksum on the critical path
		// rather than hidden under fiber serialization.
		for c.sndNxt != c.sndUna || uint32(n) > c.sndWnd {
			c.wait(ctx.T, 0)
			if c.state != Established && c.state != CloseWait {
				break
			}
		}
		if c.state != Established && c.state != CloseWait {
			break
		}
		seg := txSeg{seq: c.sndNxt, data: data[off : off+n], sentAt: c.layer.now()}
		if off+n == len(data) {
			seg.owner = owner
			seg.last = true
			queuedLast = true
		}
		c.retransQ = append(c.retransQ, seg)
		c.transmit(ctx, wire.TCPAck|wire.TCPPsh, seg.seq, seg.data)
		c.sndNxt += uint32(n)
		c.armRTO()
		off += n
	}
	c.mu.Unlock(ctx.T)
	if owner != nil && !queuedLast {
		// The final segment never entered the retransmission queue
		// (connection died): release the request here instead of the
		// ack path.
		c.layer.sendBox.EndGet(ctx, owner)
	}
}

// Recv returns the next in-order data message, or nil at EOF (peer
// closed). Release messages with RecvDone.
func (c *Conn) Recv(ctx exec.Context) *mailbox.Msg {
	m := c.rcvBox.BeginGet(ctx)
	if m.Len() == 0 { // EOF sentinel
		c.rcvBox.EndGet(ctx, m)
		// Re-post the sentinel so further Recv calls also see EOF.
		if s := c.rcvBox.BeginPutNB(ctx, 0); s != nil {
			c.rcvBox.EndPut(ctx, s)
		}
		return nil
	}
	return m
}

// RecvPoll is Recv with the spinning low-latency wait (host fast path).
func (c *Conn) RecvPoll(ctx exec.Context) *mailbox.Msg {
	m := c.rcvBox.BeginGetPoll(ctx)
	if m.Len() == 0 { // EOF sentinel
		c.rcvBox.EndGet(ctx, m)
		if s := c.rcvBox.BeginPutNB(ctx, 0); s != nil {
			c.rcvBox.EndPut(ctx, s)
		}
		return nil
	}
	return m
}

// RecvDone releases a message returned by Recv. If the receive window had
// been advertised (nearly) closed, draining the mailbox reopens it, so a
// window-update ACK is scheduled — the role the application read plays in
// BSD (without it the sender would stall until a probe).
func (c *Conn) RecvDone(ctx exec.Context, m *mailbox.Msg) {
	c.rcvBox.EndGet(ctx, m)
	if c.lastAdvWin < MSS && c.rcvWindow() >= MSS {
		t := c.layer
		t.timers.q = append(t.timers.q, timerEvent{c: c, winUpdate: true})
		t.timerCond.Signal()
	}
}

// Close sends FIN after all queued data is acknowledged and returns once
// the connection has fully closed (or the linger timeout passes).
func (c *Conn) Close(ctx exec.Context) {
	c.mu.Lock(ctx.T)
	for c.sndNxt != c.sndUna && (c.state == Established || c.state == CloseWait) {
		c.wait(ctx.T, 0)
	}
	switch c.state {
	case Established:
		c.state = FinWait1
	case CloseWait:
		c.state = LastAck
	default:
		c.mu.Unlock(ctx.T)
		return
	}
	c.sentFin = true
	c.retransQ = append(c.retransQ, txSeg{seq: c.sndNxt, fin: true, sentAt: c.layer.now()})
	c.transmit(ctx, wire.TCPFin|wire.TCPAck, c.sndNxt, nil)
	c.sndNxt++
	c.armRTO()
	for c.state != Closed && c.state != TimeWaitState {
		if !c.wait(ctx.T, ConnectTimeout) {
			break
		}
	}
	c.mu.Unlock(ctx.T)
}

// wait is a Mesa wait on c.cond by a thread holding c.mu: it unlocks
// c.mu, waits on c.cond for at most d (without limit if d is 0), and
// locks c.mu again. It reports false if d elapsed first.
func (c *Conn) wait(t *threads.Thread, d sim.Duration) bool {
	c.mu.Unlock(t)
	ok := true
	if d == 0 {
		c.cond.Wait(t)
	} else {
		ok = c.cond.WaitTimeout(t, d)
	}
	c.mu.Lock(t)
	return ok
}

// transmit emits one segment and returns IP's error if it refuses it;
// only a segment IP accepts counts in segs_out. Connect acts on the
// error; every other caller treats a refused segment as one the fiber
// lost, which its retransmission timer resends or abandons. Callers hold
// c.mu, which also guards c.hdr. The checksum is computed in software
// over the real bytes when enabled, with the cost charged at the CAB
// checksum rate.
func (c *Conn) transmit(ctx exec.Context, flags uint8, seq uint32, data []byte) error {
	t := c.layer
	cost := ctx.Cost()
	ctx.Compute(cost.TCPOutput)
	hdr := c.hdr[:]
	win := c.rcvWindow()
	c.lastAdvWin = win
	h := wire.TCPHeader{
		SrcPort: c.key.lport, DstPort: c.key.rport,
		Seq: seq, Ack: c.rcvNxt, Flags: flags,
		Window: uint16(win),
	}
	h.Marshal(hdr)
	if win < DefaultWindow/4 {
		// We just advertised a (nearly) closed window; the peer will
		// stall until we say it reopened, so arm a window-update probe.
		c.armWindowUpdate()
	}
	if t.checksum {
		ctx.Compute(cost.ChecksumTime(wire.TCPHeaderLen + len(data)))
		ck := wire.ChecksumTCP(t.ip.Addr(), c.key.rip, hdr, data)
		hdr[16], hdr[17] = byte(ck>>8), byte(ck)
	}
	if t.obs.Tracing() {
		t.obs.InstantSeq(t.node, obs.LayerTCP, "tx", uint64(seq), len(data))
	}
	if err := t.ip.Output(ctx, wire.IPv4Header{Protocol: wire.ProtoTCP, Dst: c.key.rip}, hdr, data); err != nil {
		return err
	}
	t.segsOut.Inc()
	return nil
}

// now reads the CAB's virtual clock.
func (t *Layer) now() sim.Time { return t.rt.CAB().Kernel().Now() }

// sendRST answers a stray segment with a reset (RFC 793 rules for the
// CLOSED state).
func (t *Layer) sendRST(ctx exec.Context, rip uint32, h wire.TCPHeader) {
	ctx.Compute(ctx.Cost().TCPOutput)
	hdr := make([]byte, wire.TCPHeaderLen)
	rst := wire.TCPHeader{
		SrcPort: h.DstPort, DstPort: h.SrcPort,
		Flags: wire.TCPRst | wire.TCPAck,
		Ack:   h.Seq + 1,
	}
	if h.Flags&wire.TCPAck != 0 {
		rst.Seq = h.Ack
		rst.Flags = wire.TCPRst
	}
	rst.Marshal(hdr)
	if t.checksum {
		ctx.Compute(ctx.Cost().ChecksumTime(wire.TCPHeaderLen))
		ck := wire.ChecksumTCP(t.ip.Addr(), rip, hdr, nil)
		hdr[16], hdr[17] = byte(ck>>8), byte(ck)
	}
	if t.ip.Output(ctx, wire.IPv4Header{Protocol: wire.ProtoTCP, Dst: rip}, hdr) == nil {
		t.segsOut.Inc()
	}
}

// rcvWindow is the space we advertise: the free budget of the receive
// mailbox, capped at the fixed window.
func (c *Conn) rcvWindow() uint32 {
	free := DefaultWindow
	if p := c.rcvBox.Pending(); p > 0 {
		// Narrow as the user falls behind.
		used := c.rcvBox.QueuedBytes()
		if used >= DefaultWindow {
			return 0
		}
		free = DefaultWindow - used
	}
	return uint32(free)
}

// armRTO (re)arms the retransmission timer. Callers hold c.mu.
func (c *Conn) armRTO() {
	c.rtoTimer.Stop()
	if c.onRTO == nil {
		c.onRTO = c.rto
	}
	c.rtoTimer = c.layer.rt.CAB().Kernel().After(RTO, c.onRTO)
}

// rto is the retransmission timer's event. It queues the expiry to the
// timer thread; state is only touched under mutexes held by threads
// (§4.2).
func (c *Conn) rto() {
	t := c.layer
	t.timers.q = append(t.timers.q, timerEvent{c: c})
	t.timerCond.Signal()
}

// armWindowUpdate schedules a pure-ACK probe that re-advertises the
// receive window once the user has drained the receive mailbox.
func (c *Conn) armWindowUpdate() {
	if c.winTimer.Pending() {
		return
	}
	if c.onWinTimer == nil {
		c.onWinTimer = c.winProbe
	}
	c.winTimer = c.layer.rt.CAB().Kernel().After(WindowUpdateInterval, c.onWinTimer)
}

// winProbe is the window-update timer's event; like rto, it queues the
// probe to the timer thread.
func (c *Conn) winProbe() {
	c.winTimer = sim.Timer{}
	t := c.layer
	t.timers.q = append(t.timers.q, timerEvent{c: c, winUpdate: true})
	t.timerCond.Signal()
}

// timers is the timer thread's queue of timer events (threads.Queue).
type timers struct {
	t  *Layer
	q  []timerEvent
	ev timerEvent // the event Take took
}

func (tm *timers) Take() bool {
	if len(tm.q) == 0 {
		return false
	}
	tm.ev = tm.q[0]
	tm.q = sim.PopFront(tm.q)
	return true
}

// Serve handles one timer event: a window-update probe, or a
// retransmission on RTO expiry.
func (tm *timers) Serve(th *threads.Thread) {
	t, ctx, ev := tm.t, exec.OnCAB(th), tm.ev
	tm.ev = timerEvent{}
	c := ev.c
	if ev.winUpdate {
		c.mu.Lock(th)
		if c.state == Established || c.state == FinWait1 || c.state == FinWait2 {
			// Re-advertise the window; transmit re-arms the probe if it
			// is still (nearly) closed.
			c.transmit(ctx, wire.TCPAck, c.sndNxt, nil)
		}
		c.mu.Unlock(th)
		return
	}

	c.mu.Lock(th)
	if len(c.retransQ) > 0 {
		t.retransmits.Inc()
		seg := c.retransQ[0]
		if t.obs.Tracing() {
			t.obs.InstantSeq(t.node, obs.LayerTCP, "rto", uint64(seg.seq), len(seg.data))
		}
		switch {
		case seg.fin:
			c.transmit(ctx, wire.TCPFin|wire.TCPAck, seg.seq, nil)
		case c.state == SynSent:
			c.transmit(ctx, wire.TCPSyn, seg.seq, seg.data)
		case c.state == SynRcvd:
			c.transmit(ctx, wire.TCPSyn|wire.TCPAck, seg.seq, seg.data)
		default:
			c.transmit(ctx, wire.TCPAck|wire.TCPPsh, seg.seq, seg.data)
		}
		c.armRTO()
	} else if c.state == SynSent || c.state == SynRcvd {
		// Handshake segments are implicit (not in retransQ).
		t.retransmits.Inc()
		if t.obs.Tracing() {
			t.obs.InstantSeq(t.node, obs.LayerTCP, "rto", uint64(c.iss), 0)
		}
		if c.state == SynSent {
			c.transmit(ctx, wire.TCPSyn, c.iss, nil)
		} else {
			c.transmit(ctx, wire.TCPSyn|wire.TCPAck, c.iss, nil)
		}
		c.armRTO()
	}
	c.mu.Unlock(th)
}

// handleSegment performs standard TCP input processing on one segment:
// the handler of the paper's TCP input thread.
func (t *Layer) handleSegment(ctx exec.Context, m *mailbox.Msg) {
	cost := ctx.Cost()
	ctx.Compute(cost.TCPInput)
	data := m.Data()
	var iph wire.IPv4Header
	if iph.Unmarshal(data) != nil || len(data) < wire.IPv4HeaderLen+wire.TCPHeaderLen {
		t.inBox.EndGet(ctx, m)
		return
	}
	seg := data[wire.IPv4HeaderLen:]
	var h wire.TCPHeader
	if h.Unmarshal(seg) != nil {
		t.inBox.EndGet(ctx, m)
		return
	}
	if t.checksum && h.Checksum != 0 {
		ctx.Compute(cost.ChecksumTime(len(seg)))
		if !wire.VerifyTCP(iph.Src, iph.Dst, seg) {
			t.badChecksum.Inc()
			t.inBox.EndGet(ctx, m)
			return
		}
	}
	payload := seg[wire.TCPHeaderLen:]

	key := connKey{lport: h.DstPort, rip: iph.Src, rport: h.SrcPort}
	c, ok := t.conns[key]
	if !ok {
		// SYN to a listener?
		if h.Flags&wire.TCPSyn != 0 && h.Flags&wire.TCPAck == 0 {
			if ln, lok := t.listeners[h.DstPort]; lok {
				c = t.newConn(key)
				c.listenerAccept(ctx, ln, h)
				t.inBox.EndGet(ctx, m)
				return
			}
		}
		// No connection and no listener: answer with RST so an active
		// opener learns "connection refused" instead of timing out.
		t.drops.Inc()
		if h.Flags&wire.TCPRst == 0 {
			t.sendRST(ctx, iph.Src, h)
		}
		t.inBox.EndGet(ctx, m)
		return
	}

	c.mu.Lock(ctx.T)
	c.processSegment(ctx, h, payload, m)
	c.mu.Unlock(ctx.T)
}

// listenerAccept handles a SYN for a listening port (conn is fresh).
func (c *Conn) listenerAccept(ctx exec.Context, ln *Listener, h wire.TCPHeader) {
	c.mu.Lock(ctx.T)
	c.state = SynRcvd
	c.rcvNxt = h.Seq + 1
	c.sndWnd = uint32(h.Window)
	c.acceptLn = ln
	c.transmit(ctx, wire.TCPSyn|wire.TCPAck, c.iss, nil)
	c.sndNxt = c.iss + 1
	c.armRTO()
	c.mu.Unlock(ctx.T)
}

// processSegment runs the state machine for an arriving segment. The
// caller holds c.mu and is responsible for EndGet/Enqueue of m.
func (c *Conn) processSegment(ctx exec.Context, h wire.TCPHeader, payload []byte, m *mailbox.Msg) {
	t := c.layer
	t.segsIn.Inc()
	if t.obs.Tracing() {
		t.obs.InstantSeq(t.node, obs.LayerTCP, "rx", uint64(h.Seq), len(payload))
	}
	release := true
	defer func() {
		if release {
			t.inBox.EndGet(ctx, m)
		}
	}()

	if h.Flags&wire.TCPRst != 0 {
		c.teardown(ctx) // Connect/Close waiters observe Closed ("refused")
		return
	}

	// Handshake transitions.
	switch c.state {
	case SynSent:
		if h.Flags&(wire.TCPSyn|wire.TCPAck) == wire.TCPSyn|wire.TCPAck && h.Ack == c.iss+1 {
			c.rcvNxt = h.Seq + 1
			c.sndUna = h.Ack
			c.sndWnd = uint32(h.Window)
			c.state = Established
			c.stopRTOIfIdle()
			c.transmit(ctx, wire.TCPAck, c.sndNxt, nil)
			c.cond.Broadcast()
		}
		return
	case SynRcvd:
		if h.Flags&wire.TCPAck != 0 && h.Ack == c.iss+1 {
			c.sndUna = h.Ack
			c.sndWnd = uint32(h.Window)
			c.state = Established
			c.stopRTOIfIdle()
			c.cond.Broadcast()
			if ln := c.acceptLn; ln != nil {
				c.acceptLn = nil
				ln.backlog = append(ln.backlog, c)
				ln.cond.Broadcast()
			}
			// Fall through: the ACK may carry data.
		} else {
			return
		}
	case Closed, Listen:
		return
	}

	// ACK processing: advance sndUna, drop acked segments, release
	// send-request buffers, open the window.
	if h.Flags&wire.TCPAck != 0 && seqLT(c.sndUna, h.Ack) && seqLEQ(h.Ack, c.sndNxt) {
		c.sndUna = h.Ack
		c.sndWnd = uint32(h.Window)
		for len(c.retransQ) > 0 {
			s := c.retransQ[0]
			end := s.seq + uint32(len(s.data))
			if s.fin {
				end = s.seq + 1
			}
			if !seqLEQ(end, c.sndUna) {
				break
			}
			c.retransQ = sim.PopFront(c.retransQ)
			if s.sentAt != 0 {
				t.ackRTT.Observe(sim.Duration(t.now() - s.sentAt))
			}
			if s.last && s.owner != nil {
				t.sendBox.EndGet(ctx, s.owner)
			}
		}
		c.stopRTOIfIdle()
		if len(c.retransQ) > 0 {
			c.armRTO()
		}
		// FIN acknowledged?
		if c.sentFin && c.sndUna == c.sndNxt {
			switch c.state {
			case FinWait1:
				c.state = FinWait2
			case Closing:
				c.enterTimeWait()
			case LastAck:
				c.teardown(ctx)
			}
		}
		c.cond.Broadcast()
	} else if h.Flags&wire.TCPAck != 0 {
		c.sndWnd = uint32(h.Window) // window update on duplicate ack
		c.cond.Broadcast()
	}

	// Data processing: accept only the next in-order segment; everything
	// else is dropped and re-acked (go-back-N receiver).
	if len(payload) > 0 {
		if h.Seq == c.rcvNxt && (c.state == Established || c.state == FinWait1 || c.state == FinWait2) {
			c.rcvNxt += uint32(len(payload))
			// Delete the headers in place and hand the payload to the
			// user's receive mailbox — no copying (paper §4.2).
			m.TrimPrefix(ctx, wire.IPv4HeaderLen+wire.TCPHeaderLen)
			t.inBox.Enqueue(ctx, m, c.rcvBox)
			release = false
			c.transmit(ctx, wire.TCPAck, c.sndNxt, nil)
		} else {
			t.drops.Inc()
			c.transmit(ctx, wire.TCPAck, c.sndNxt, nil) // duplicate ack
			return
		}
	}

	// FIN processing.
	if h.Flags&wire.TCPFin != 0 && seqLEQ(h.Seq+uint32(len(payload)), c.rcvNxt) {
		c.rcvNxt++
		c.transmit(ctx, wire.TCPAck, c.sndNxt, nil)
		c.deliverEOF(ctx)
		switch c.state {
		case Established:
			c.state = CloseWait
		case FinWait1:
			c.state = Closing
		case FinWait2:
			c.enterTimeWait()
		}
		c.cond.Broadcast()
	}
}

// deliverEOF posts the zero-length EOF sentinel to the receive mailbox.
func (c *Conn) deliverEOF(ctx exec.Context) {
	if c.rcvEOF {
		return
	}
	c.rcvEOF = true
	if s := c.rcvBox.BeginPutNB(ctx, 0); s != nil {
		c.rcvBox.EndPut(ctx, s)
	}
}

// stopRTOIfIdle cancels the timer when nothing is outstanding.
func (c *Conn) stopRTOIfIdle() {
	if len(c.retransQ) == 0 {
		c.rtoTimer.Stop()
		c.rtoTimer = sim.Timer{}
	}
}

// enterTimeWait lingers briefly, then tears down.
func (c *Conn) enterTimeWait() {
	c.state = TimeWaitState
	t := c.layer
	k := t.rt.CAB().Kernel()
	k.After(TimeWait, func() {
		delete(t.conns, c.key)
		c.state = Closed
	})
	c.cond.Broadcast()
}

// stopRetransmit stops the retransmission timer and drops the
// retransmission queue, releasing each send request whose last segment
// it held. A handshake's SYN is implicit, never queued, so for a Connect
// that times out only the timer is left to stop.
func (c *Conn) stopRetransmit(ctx exec.Context) {
	c.rtoTimer.Stop()
	c.rtoTimer = sim.Timer{}
	for _, s := range c.retransQ {
		if s.last && s.owner != nil {
			c.layer.sendBox.EndGet(ctx, s.owner)
		}
	}
	clear(c.retransQ)
	c.retransQ = c.retransQ[:0]
}

// teardown closes immediately, releasing any send-request buffers still
// referenced by the retransmission queue.
func (c *Conn) teardown(ctx exec.Context) {
	c.state = Closed
	c.stopRetransmit(ctx)
	c.deliverEOF(ctx)
	delete(c.layer.conns, c.key)
	c.cond.Broadcast()
}
