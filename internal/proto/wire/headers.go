package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// NodeID identifies a host/CAB pair on the Nectar network. Node IDs are
// assigned by the cluster builder and double as HUB routing-table keys.
type NodeID uint16

// MailboxID is the per-node identifier of a mailbox; together with a NodeID
// it forms the network-wide mailbox address of paper §3.3.
type MailboxID uint16

// MailboxAddr is a network-wide mailbox address.
type MailboxAddr struct {
	Node NodeID
	Box  MailboxID
}

func (a MailboxAddr) String() string { return fmt.Sprintf("%d:%d", a.Node, a.Box) }

// Frame type values carried in the datalink header's Type field.
const (
	TypeDatagram uint8 = 1 // Nectar unreliable datagram transport
	TypeRMP      uint8 = 2 // Nectar reliable message protocol (stop-and-wait)
	TypeRRP      uint8 = 3 // Nectar request-response protocol
	TypeIP       uint8 = 4 // encapsulated IPv4 (CAB-resident stack)
	TypeRaw      uint8 = 5 // raw packets for the network-device level (§5.1)
)

// frameMagic marks the start of a datalink header.
const frameMagic = 0x9C

// DatalinkHeaderLen is the size of the fixed datalink header.
const DatalinkHeaderLen = 8

// CRCLen is the size of the hardware CRC-32 frame trailer.
const CRCLen = 4

// MaxPayload is the largest datalink payload (transport header + user
// data). It comfortably covers the paper's 8 KB experiments plus headers.
const MaxPayload = 16 << 10

// DatalinkHeader is the fixed frame header that follows the source route
// on the fiber. The hardware appends a CRC-32 trailer over header+payload.
type DatalinkHeader struct {
	Type uint8  // payload protocol (Type* constants)
	Len  uint16 // payload length in bytes
	Src  NodeID // originating node
	Dst  NodeID // destination node
}

// Marshal writes the header into b[:DatalinkHeaderLen].
func (h *DatalinkHeader) Marshal(b []byte) {
	_ = b[DatalinkHeaderLen-1]
	b[0] = frameMagic
	b[1] = h.Type
	binary.BigEndian.PutUint16(b[2:], h.Len)
	binary.BigEndian.PutUint16(b[4:], uint16(h.Src))
	binary.BigEndian.PutUint16(b[6:], uint16(h.Dst))
}

// Unmarshal parses the header from b.
func (h *DatalinkHeader) Unmarshal(b []byte) error {
	if len(b) < DatalinkHeaderLen {
		return fmt.Errorf("wire: datalink header truncated: %d bytes", len(b))
	}
	if b[0] != frameMagic {
		return fmt.Errorf("wire: bad frame magic %#x", b[0])
	}
	h.Type = b[1]
	h.Len = binary.BigEndian.Uint16(b[2:])
	h.Src = NodeID(binary.BigEndian.Uint16(b[4:]))
	h.Dst = NodeID(binary.BigEndian.Uint16(b[6:]))
	return nil
}

// CRC32 is the frame CRC computed by the CAB's checksum hardware (paper
// §2.2: "Cyclic Redundancy Checksums for incoming and outgoing data are
// computed by hardware").
func CRC32(data []byte) uint32 {
	return crc32.ChecksumIEEE(data)
}

// --- Nectar transport headers (our concrete encodings of the paper's
// datagram, reliable message, and request-response protocols, §4) ---

// NectarHeaderLen is the size of the common Nectar transport header.
const NectarHeaderLen = 16

// Nectar transport flag bits.
const (
	FlagData  uint8 = 1 << 0 // RMP: data packet; RRP: request
	FlagAck   uint8 = 1 << 1 // RMP: acknowledgment; RRP: reply
	FlagReply uint8 = 1 << 2 // RRP: reply carrying data
)

// NectarHeader is the common header of the three Nectar-specific transport
// protocols. Seq carries the RMP sequence number or the RRP transaction ID.
type NectarHeader struct {
	DstBox MailboxID // destination mailbox on the destination node
	SrcBox MailboxID // reply mailbox on the source node
	Seq    uint32    // RMP sequence number / RRP transaction id
	Flags  uint8
	Window uint8  // RMP: receiver buffer credit (extension; 0 = stop-and-wait)
	Len    uint16 // user payload length
	// 4 bytes reserved/padding to keep the header word-aligned.
}

// Marshal writes the header into b[:NectarHeaderLen].
func (h *NectarHeader) Marshal(b []byte) {
	_ = b[NectarHeaderLen-1]
	binary.BigEndian.PutUint16(b[0:], uint16(h.DstBox))
	binary.BigEndian.PutUint16(b[2:], uint16(h.SrcBox))
	binary.BigEndian.PutUint32(b[4:], h.Seq)
	b[8] = h.Flags
	b[9] = h.Window
	binary.BigEndian.PutUint16(b[10:], h.Len)
	b[12], b[13], b[14], b[15] = 0, 0, 0, 0
}

// Unmarshal parses the header from b.
func (h *NectarHeader) Unmarshal(b []byte) error {
	if len(b) < NectarHeaderLen {
		return fmt.Errorf("wire: nectar header truncated: %d bytes", len(b))
	}
	h.DstBox = MailboxID(binary.BigEndian.Uint16(b[0:]))
	h.SrcBox = MailboxID(binary.BigEndian.Uint16(b[2:]))
	h.Seq = binary.BigEndian.Uint32(b[4:])
	h.Flags = b[8]
	h.Window = b[9]
	h.Len = binary.BigEndian.Uint16(b[10:])
	return nil
}

// --- IPv4 ---

// IP protocol numbers.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// IPv4 fragmentation flag bits (in the FlagsFrag field's top bits).
const (
	IPFlagDF  = 0x4000 // don't fragment
	IPFlagMF  = 0x2000 // more fragments
	IPOffMask = 0x1fff
)

// IPv4Header is a standard IPv4 header (no options).
type IPv4Header struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint16 // DF/MF bits as in IPFlag*
	FragOff  uint16 // fragment offset in 8-byte units
	TTL      uint8
	Protocol uint8
	Checksum uint16 // filled by Marshal when zero; validated by Unmarshal callers
	Src, Dst uint32
}

// Marshal writes the header into b[:IPv4HeaderLen] and computes the header
// checksum.
func (h *IPv4Header) Marshal(b []byte) {
	_ = b[IPv4HeaderLen-1]
	b[0] = 0x45 // version 4, IHL 5
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	binary.BigEndian.PutUint16(b[6:], h.Flags|(h.FragOff&IPOffMask))
	b[8] = h.TTL
	b[9] = h.Protocol
	b[10], b[11] = 0, 0
	binary.BigEndian.PutUint32(b[12:], h.Src)
	binary.BigEndian.PutUint32(b[16:], h.Dst)
	h.Checksum = Checksum(b[:IPv4HeaderLen])
	binary.BigEndian.PutUint16(b[10:], h.Checksum)
}

// Unmarshal parses the header from b. It does not verify the checksum;
// use VerifyChecksum(b[:IPv4HeaderLen]) for that (the paper's IP performs
// this sanity check in the start-of-data upcall).
func (h *IPv4Header) Unmarshal(b []byte) error {
	if len(b) < IPv4HeaderLen {
		return fmt.Errorf("wire: IPv4 header truncated: %d bytes", len(b))
	}
	if b[0]>>4 != 4 {
		return fmt.Errorf("wire: IP version %d, want 4", b[0]>>4)
	}
	if ihl := int(b[0]&0xf) * 4; ihl != IPv4HeaderLen {
		return fmt.Errorf("wire: IP options unsupported (IHL %d)", ihl)
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:])
	h.ID = binary.BigEndian.Uint16(b[4:])
	ff := binary.BigEndian.Uint16(b[6:])
	h.Flags = ff &^ IPOffMask
	h.FragOff = ff & IPOffMask
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = binary.BigEndian.Uint16(b[10:])
	h.Src = binary.BigEndian.Uint32(b[12:])
	h.Dst = binary.BigEndian.Uint32(b[16:])
	return nil
}

// --- UDP ---

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// UDPHeader is a standard UDP header.
type UDPHeader struct {
	SrcPort, DstPort uint16
	Len              uint16 // header + payload
	Checksum         uint16
}

// Marshal writes the header into b[:UDPHeaderLen] with Checksum as given
// (zero means "not computed", as UDP permits).
func (h *UDPHeader) Marshal(b []byte) {
	_ = b[UDPHeaderLen-1]
	binary.BigEndian.PutUint16(b[0:], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint16(b[4:], h.Len)
	binary.BigEndian.PutUint16(b[6:], h.Checksum)
}

// Unmarshal parses the header from b.
func (h *UDPHeader) Unmarshal(b []byte) error {
	if len(b) < UDPHeaderLen {
		return fmt.Errorf("wire: UDP header truncated: %d bytes", len(b))
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:])
	h.DstPort = binary.BigEndian.Uint16(b[2:])
	h.Len = binary.BigEndian.Uint16(b[4:])
	h.Checksum = binary.BigEndian.Uint16(b[6:])
	return nil
}

// --- TCP ---

// TCPHeaderLen is the length of a TCP header without options.
const TCPHeaderLen = 20

// TCP flag bits.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
)

// TCPHeader is a standard TCP header (no options).
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
}

// Marshal writes the header into b[:TCPHeaderLen] with Checksum as given.
// TCP checksum computation spans the pseudo-header and payload, so the
// caller computes it (see ChecksumTCP) and re-marshals or patches b[16:18].
func (h *TCPHeader) Marshal(b []byte) {
	_ = b[TCPHeaderLen-1]
	binary.BigEndian.PutUint16(b[0:], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint32(b[4:], h.Seq)
	binary.BigEndian.PutUint32(b[8:], h.Ack)
	b[12] = (TCPHeaderLen / 4) << 4 // data offset
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:], h.Window)
	binary.BigEndian.PutUint16(b[16:], h.Checksum)
	binary.BigEndian.PutUint16(b[18:], h.Urgent)
}

// Unmarshal parses the header from b.
func (h *TCPHeader) Unmarshal(b []byte) error {
	if len(b) < TCPHeaderLen {
		return fmt.Errorf("wire: TCP header truncated: %d bytes", len(b))
	}
	if off := int(b[12]>>4) * 4; off != TCPHeaderLen {
		return fmt.Errorf("wire: TCP options unsupported (offset %d)", off)
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:])
	h.DstPort = binary.BigEndian.Uint16(b[2:])
	h.Seq = binary.BigEndian.Uint32(b[4:])
	h.Ack = binary.BigEndian.Uint32(b[8:])
	h.Flags = b[13]
	h.Window = binary.BigEndian.Uint16(b[14:])
	h.Checksum = binary.BigEndian.Uint16(b[16:])
	h.Urgent = binary.BigEndian.Uint16(b[18:])
	return nil
}

// ChecksumTCP computes the TCP checksum over the pseudo-header, the
// header hdr and the payload data, which need not be contiguous. hdr's
// checksum field must be zero; the caller patches the result into
// hdr[16:18].
//
//nectar:hotpath
func ChecksumTCP(src, dst uint32, hdr, data []byte) uint16 {
	sum := PseudoHeaderSum(src, dst, ProtoTCP, len(hdr)+len(data))
	sum = SumWords(sum, hdr)
	sum = SumWords(sum, data)
	return FinishChecksum(sum)
}

// VerifyTCP reports whether the segment's checksum is valid.
func VerifyTCP(src, dst uint32, seg []byte) bool {
	sum := PseudoHeaderSum(src, dst, ProtoTCP, len(seg))
	sum = SumWords(sum, seg)
	return FinishChecksum(sum) == 0
}

// ChecksumUDP computes the UDP checksum over the pseudo-header, the
// UDP header hdr (its checksum field treated as zero) and the payload
// data, which need not follow hdr in memory. Per RFC 768, a computed zero
// is transmitted as 0xFFFF.
func ChecksumUDP(src, dst uint32, hdr, data []byte) uint16 {
	sum := PseudoHeaderSum(src, dst, ProtoUDP, len(hdr)+len(data))
	sum = SumWords(sum, hdr[:6])
	sum = SumWords(sum, hdr[8:])
	sum = SumWords(sum, data)
	c := FinishChecksum(sum)
	if c == 0 {
		c = 0xFFFF
	}
	return c
}

// --- ICMP ---

// ICMPHeaderLen is the length of the ICMP echo header.
const ICMPHeaderLen = 8

// ICMP message types used here.
const (
	ICMPEchoReply   uint8 = 0
	ICMPUnreachable uint8 = 3
	ICMPEcho        uint8 = 8
)

// ICMPHeader is an ICMP header for echo/unreachable messages.
type ICMPHeader struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	ID       uint16 // echo identifier (unused for unreachable)
	Seq      uint16 // echo sequence (unused for unreachable)
}

// Marshal writes the header into b[:ICMPHeaderLen]. If msg covers the full
// ICMP message (header + payload), call ChecksumICMP afterwards to patch
// bytes 2:4.
func (h *ICMPHeader) Marshal(b []byte) {
	_ = b[ICMPHeaderLen-1]
	b[0] = h.Type
	b[1] = h.Code
	binary.BigEndian.PutUint16(b[2:], h.Checksum)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	binary.BigEndian.PutUint16(b[6:], h.Seq)
}

// Unmarshal parses the header from b.
func (h *ICMPHeader) Unmarshal(b []byte) error {
	if len(b) < ICMPHeaderLen {
		return fmt.Errorf("wire: ICMP header truncated: %d bytes", len(b))
	}
	h.Type = b[0]
	h.Code = b[1]
	h.Checksum = binary.BigEndian.Uint16(b[2:])
	h.ID = binary.BigEndian.Uint16(b[4:])
	h.Seq = binary.BigEndian.Uint16(b[6:])
	return nil
}

// ChecksumICMP computes the ICMP checksum over msg (header + payload) with
// the checksum field treated as zero.
func ChecksumICMP(msg []byte) uint16 {
	sum := SumWords(0, msg[:2])
	sum = SumWords(sum, msg[4:])
	return FinishChecksum(sum)
}

// --- IP address helpers ---

// IPAddr packs a.b.c.d into a uint32.
func IPAddr(a, b, c, d uint8) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// NodeIP maps a NodeID to its IP address in the simulated 10.9.0.0/16
// Nectar subnet, mirroring the paper's one-CAB-per-host addressing.
func NodeIP(n NodeID) uint32 {
	return IPAddr(10, 9, uint8(n>>8), uint8(n))
}

// IPNode is the inverse of NodeIP; ok is false for addresses outside the
// Nectar subnet.
func IPNode(ip uint32) (NodeID, bool) {
	if ip>>16 != uint32(10)<<8|9 {
		return 0, false
	}
	return NodeID(ip & 0xffff), true
}

// FormatIP renders an IP address in dotted quad form.
func FormatIP(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}
