package obs

import (
	"fmt"
	"strings"

	"nectar/internal/proto/wire"
	"nectar/internal/sim"
)

// CapturedPacket is one frame seen on a fiber link, with its virtual
// arrival-on-wire time and a protocol decode.
type CapturedPacket struct {
	At        sim.Time `json:"at_ns"`
	Link      string   `json:"link"`
	Bytes     int      `json:"bytes"`
	Dropped   bool     `json:"dropped,omitempty"`   // fault injection ate it
	Corrupted bool     `json:"corrupted,omitempty"` // fault injection flipped bits
	Summary   string   `json:"summary"`             // protocol decode one-liner
}

// Capture is a wire tap: install it with Observer.SetCapture and every
// frame sent on any fiber link of the kernel is logged with a decode.
type Capture struct {
	Packets []CapturedPacket
	// KeepFrames retains raw frame copies in Frames (parallel to
	// Packets) for offline analysis. Off by default to bound memory.
	KeepFrames bool
	Frames     [][]byte
}

// add appends one frame to the log.
func (c *Capture) add(at sim.Time, link string, frame []byte, dropped, corrupted bool) {
	p := CapturedPacket{
		At:        at,
		Link:      link,
		Bytes:     len(frame),
		Dropped:   dropped,
		Corrupted: corrupted,
		Summary:   Decode(frame),
	}
	c.Packets = append(c.Packets, p)
	if c.KeepFrames {
		c.Frames = append(c.Frames, append([]byte(nil), frame...))
	}
}

// Text renders the capture as a tcpdump-style listing.
//
//nectar:api sharded identity helper: the determinism tests compare captures in this form
func (c *Capture) Text() string {
	var b strings.Builder
	for _, p := range c.Packets {
		flag := ""
		if p.Dropped {
			flag = " [DROPPED]"
		} else if p.Corrupted {
			flag = " [CORRUPTED]"
		}
		fmt.Fprintf(&b, "%12.3fus %-10s %4dB  %s%s\n", p.At.Micros(), p.Link, p.Bytes, p.Summary, flag)
	}
	return b.String()
}

// Decode produces a one-line protocol summary of a raw fiber frame:
// datalink header, then the encapsulated Nectar transport or IP packet
// (and its TCP/UDP/ICMP payload).
func Decode(frame []byte) string {
	var dl wire.DatalinkHeader
	if err := dl.Unmarshal(frame); err != nil {
		return fmt.Sprintf("?? undecodable frame (%v)", err)
	}
	payload := frame[wire.DatalinkHeaderLen:]
	if int(dl.Len) <= len(payload) {
		payload = payload[:dl.Len]
	}
	head := fmt.Sprintf("n%d > n%d", dl.Src, dl.Dst)
	switch dl.Type {
	case wire.TypeDatagram, wire.TypeRMP, wire.TypeRRP:
		return head + " " + decodeNectar(dl.Type, payload)
	case wire.TypeIP:
		return head + " " + decodeIP(payload)
	case wire.TypeRaw:
		return fmt.Sprintf("%s raw len=%d", head, dl.Len)
	}
	return fmt.Sprintf("%s type=%d len=%d", head, dl.Type, dl.Len)
}

// decodeNectar summarizes a Nectar transport packet.
func decodeNectar(typ uint8, b []byte) string {
	name := map[uint8]string{
		wire.TypeDatagram: "datagram",
		wire.TypeRMP:      "rmp",
		wire.TypeRRP:      "rrp",
	}[typ]
	var h wire.NectarHeader
	if err := h.Unmarshal(b); err != nil {
		return fmt.Sprintf("%s (truncated header)", name)
	}
	var fl []string
	if h.Flags&wire.FlagData != 0 {
		fl = append(fl, "data")
	}
	if h.Flags&wire.FlagAck != 0 {
		fl = append(fl, "ack")
	}
	if h.Flags&wire.FlagReply != 0 {
		fl = append(fl, "reply")
	}
	s := fmt.Sprintf("%s box %d > %d seq=%d len=%d", name, h.SrcBox, h.DstBox, h.Seq, h.Len)
	if len(fl) > 0 {
		s += " [" + strings.Join(fl, ",") + "]"
	}
	if h.Window != 0 {
		s += fmt.Sprintf(" win=%d", h.Window)
	}
	return s
}

// decodeIP summarizes an encapsulated IPv4 packet and its payload.
func decodeIP(b []byte) string {
	var h wire.IPv4Header
	if err := h.Unmarshal(b); err != nil {
		return "ip (truncated header)"
	}
	s := fmt.Sprintf("ip %s > %s id=%d ttl=%d", wire.FormatIP(h.Src), wire.FormatIP(h.Dst), h.ID, h.TTL)
	if h.FragOff != 0 || h.Flags&wire.IPFlagMF != 0 {
		s += fmt.Sprintf(" frag off=%d", int(h.FragOff)*8)
		if h.Flags&wire.IPFlagMF != 0 {
			s += "+"
		}
		if h.FragOff != 0 {
			// Continuation fragments carry no transport header.
			return s
		}
	}
	payload := b[wire.IPv4HeaderLen:]
	if int(h.TotalLen) >= wire.IPv4HeaderLen && int(h.TotalLen) <= len(b) {
		payload = b[wire.IPv4HeaderLen:h.TotalLen]
	}
	switch h.Protocol {
	case wire.ProtoTCP:
		return s + " " + decodeTCP(payload)
	case wire.ProtoUDP:
		return s + " " + decodeUDP(payload)
	case wire.ProtoICMP:
		return s + " " + decodeICMP(payload)
	}
	return fmt.Sprintf("%s proto=%d", s, h.Protocol)
}

func decodeTCP(b []byte) string {
	var h wire.TCPHeader
	if err := h.Unmarshal(b); err != nil {
		return "tcp (truncated header)"
	}
	var fl []string
	for _, f := range []struct {
		bit  uint8
		name string
	}{{wire.TCPSyn, "S"}, {wire.TCPFin, "F"}, {wire.TCPRst, "R"}, {wire.TCPPsh, "P"}, {wire.TCPAck, "."}} {
		if h.Flags&f.bit != 0 {
			fl = append(fl, f.name)
		}
	}
	return fmt.Sprintf("tcp %d > %d [%s] seq=%d ack=%d win=%d len=%d",
		h.SrcPort, h.DstPort, strings.Join(fl, ""), h.Seq, h.Ack, h.Window, len(b)-wire.TCPHeaderLen)
}

func decodeUDP(b []byte) string {
	var h wire.UDPHeader
	if err := h.Unmarshal(b); err != nil {
		return "udp (truncated header)"
	}
	return fmt.Sprintf("udp %d > %d len=%d", h.SrcPort, h.DstPort, int(h.Len)-wire.UDPHeaderLen)
}

func decodeICMP(b []byte) string {
	var h wire.ICMPHeader
	if err := h.Unmarshal(b); err != nil {
		return "icmp (truncated header)"
	}
	kind := fmt.Sprintf("type=%d code=%d", h.Type, h.Code)
	switch h.Type {
	case wire.ICMPEcho:
		kind = fmt.Sprintf("echo request id=%d seq=%d", h.ID, h.Seq)
	case wire.ICMPEchoReply:
		kind = fmt.Sprintf("echo reply id=%d seq=%d", h.ID, h.Seq)
	case wire.ICMPUnreachable:
		kind = fmt.Sprintf("unreachable code=%d", h.Code)
	}
	return "icmp " + kind
}
