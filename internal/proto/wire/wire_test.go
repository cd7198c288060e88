package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 worked example: 0001 f203 f4f5 f6f7 -> checksum 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Errorf("checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd trailing byte is padded with zero on the right.
	if Checksum([]byte{0x12}) != Checksum([]byte{0x12, 0x00}) {
		t.Error("odd-length padding mismatch")
	}
}

func TestChecksumVerifyProperty(t *testing.T) {
	// Property: appending the checksum of data makes the whole verify.
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		c := Checksum(data)
		whole := append(append([]byte{}, data...), byte(c>>8), byte(c))
		return VerifyChecksum(whole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestChecksumIncrementalProperty(t *testing.T) {
	// Property: SumWords over split spans equals the one-shot sum, for any
	// even split point.
	f := func(data []byte, splitRaw uint8) bool {
		split := int(splitRaw) % (len(data) + 1)
		split &^= 1 // keep word alignment
		one := FinishChecksum(SumWords(0, data))
		two := FinishChecksum(SumWords(SumWords(0, data[:split]), data[split:]))
		return one == two
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDatalinkHeaderRoundTrip(t *testing.T) {
	f := func(typ uint8, length uint16, src, dst uint16) bool {
		h := DatalinkHeader{Type: typ, Len: length, Src: NodeID(src), Dst: NodeID(dst)}
		var b [DatalinkHeaderLen]byte
		h.Marshal(b[:])
		var g DatalinkHeader
		if err := g.Unmarshal(b[:]); err != nil {
			return false
		}
		return g == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDatalinkHeaderBadMagic(t *testing.T) {
	var b [DatalinkHeaderLen]byte
	b[0] = 0x00
	var h DatalinkHeader
	if err := h.Unmarshal(b[:]); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestDatalinkHeaderTruncated(t *testing.T) {
	var h DatalinkHeader
	if err := h.Unmarshal(make([]byte, 3)); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestNectarHeaderRoundTrip(t *testing.T) {
	f := func(dst, src uint16, seq uint32, flags, window uint8, length uint16) bool {
		h := NectarHeader{
			DstBox: MailboxID(dst), SrcBox: MailboxID(src),
			Seq: seq, Flags: flags, Window: window, Len: length,
		}
		var b [NectarHeaderLen]byte
		h.Marshal(b[:])
		var g NectarHeader
		if err := g.Unmarshal(b[:]); err != nil {
			return false
		}
		return g == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPv4HeaderRoundTrip(t *testing.T) {
	f := func(tos uint8, totalLen, id uint16, ttl, proto uint8, src, dst uint32, mf bool, fragOff uint16) bool {
		h := IPv4Header{
			TOS: tos, TotalLen: totalLen, ID: id, TTL: ttl,
			Protocol: proto, Src: src, Dst: dst,
			FragOff: fragOff & IPOffMask,
		}
		if mf {
			h.Flags = IPFlagMF
		}
		var b [IPv4HeaderLen]byte
		h.Marshal(b[:])
		if !VerifyChecksum(b[:]) {
			return false // marshaled header must self-verify
		}
		var g IPv4Header
		if err := g.Unmarshal(b[:]); err != nil {
			return false
		}
		return g == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	h := IPv4Header{TotalLen: 40, ID: 7, TTL: 16, Protocol: ProtoTCP,
		Src: IPAddr(10, 9, 0, 1), Dst: IPAddr(10, 9, 0, 2)}
	var b [IPv4HeaderLen]byte
	h.Marshal(b[:])
	b[8] ^= 0xff // corrupt TTL
	if VerifyChecksum(b[:]) {
		t.Error("corrupted header passed checksum")
	}
}

func TestIPv4RejectsOptions(t *testing.T) {
	var b [24]byte
	b[0] = 0x46 // IHL 6: one option word
	var h IPv4Header
	if err := h.Unmarshal(b[:]); err == nil {
		t.Error("header with options accepted")
	}
}

func TestUDPHeaderRoundTrip(t *testing.T) {
	f := func(sp, dp, l, c uint16) bool {
		h := UDPHeader{SrcPort: sp, DstPort: dp, Len: l, Checksum: c}
		var b [UDPHeaderLen]byte
		h.Marshal(b[:])
		var g UDPHeader
		if err := g.Unmarshal(b[:]); err != nil {
			return false
		}
		return g == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTCPHeaderRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win, urg uint16) bool {
		h := TCPHeader{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: flags & 0x1f, Window: win, Urgent: urg}
		var b [TCPHeaderLen]byte
		h.Marshal(b[:])
		var g TCPHeader
		if err := g.Unmarshal(b[:]); err != nil {
			return false
		}
		return g == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTCPChecksumRoundTrip(t *testing.T) {
	src, dst := IPAddr(10, 9, 0, 1), IPAddr(10, 9, 0, 2)
	payload := []byte("the quick brown fox jumps over the lazy dog")
	seg := make([]byte, TCPHeaderLen+len(payload))
	h := TCPHeader{SrcPort: 1234, DstPort: 80, Seq: 99, Ack: 12, Flags: TCPAck, Window: 4096}
	h.Marshal(seg)
	copy(seg[TCPHeaderLen:], payload)
	c := ChecksumTCP(src, dst, seg[:TCPHeaderLen], seg[TCPHeaderLen:])
	seg[16], seg[17] = byte(c>>8), byte(c)
	if !VerifyTCP(src, dst, seg) {
		t.Fatal("checksummed segment does not verify")
	}
	seg[TCPHeaderLen+5] ^= 0x40 // corrupt payload
	if VerifyTCP(src, dst, seg) {
		t.Error("corrupted segment verified")
	}
}

func TestTCPChecksumPseudoHeaderMatters(t *testing.T) {
	src, dst := IPAddr(10, 9, 0, 1), IPAddr(10, 9, 0, 2)
	seg := make([]byte, TCPHeaderLen)
	h := TCPHeader{SrcPort: 1, DstPort: 2}
	h.Marshal(seg)
	c := ChecksumTCP(src, dst, seg, nil)
	seg[16], seg[17] = byte(c>>8), byte(c)
	if VerifyTCP(src, IPAddr(10, 9, 0, 3), seg) {
		t.Error("segment verified against wrong destination address")
	}
}

func TestUDPChecksumNeverZero(t *testing.T) {
	// Find-free check: ChecksumUDP must map a computed 0 to 0xFFFF; at
	// minimum it never returns 0 for a sample of inputs.
	dg := make([]byte, UDPHeaderLen+3)
	h := UDPHeader{SrcPort: 0, DstPort: 0, Len: uint16(len(dg))}
	h.Marshal(dg)
	if ChecksumUDP(0, 0, dg[:UDPHeaderLen], dg[UDPHeaderLen:]) == 0 {
		t.Error("UDP checksum returned 0")
	}
}

// TestUDPChecksumSpans checks that the header and the payload as two
// spans checksum like the contiguous datagram: the RFC 768 sum over the
// pseudo-header and the datagram with its checksum field zeroed.
func TestUDPChecksumSpans(t *testing.T) {
	src, dst := IPAddr(10, 9, 0, 1), IPAddr(10, 9, 0, 2)
	for n := 0; n < 70; n++ {
		dg := make([]byte, UDPHeaderLen+n)
		h := UDPHeader{SrcPort: 1000, DstPort: 2000, Len: uint16(len(dg)), Checksum: 0xbeef}
		h.Marshal(dg)
		for i := UDPHeaderLen; i < len(dg); i++ {
			dg[i] = byte(i*37 + n)
		}
		ref := make([]byte, len(dg))
		copy(ref, dg)
		ref[6], ref[7] = 0, 0
		want := FinishChecksum(SumWords(PseudoHeaderSum(src, dst, ProtoUDP, len(ref)), ref))
		if want == 0 {
			want = 0xFFFF
		}
		if got := ChecksumUDP(src, dst, dg[:UDPHeaderLen], dg[UDPHeaderLen:]); got != want {
			t.Fatalf("%d-byte payload: checksum %#04x, want %#04x", n, got, want)
		}
	}
}

func TestICMPChecksumRoundTrip(t *testing.T) {
	msg := make([]byte, ICMPHeaderLen+10)
	h := ICMPHeader{Type: ICMPEcho, ID: 7, Seq: 3}
	h.Marshal(msg)
	copy(msg[ICMPHeaderLen:], "ping-data!")
	c := ChecksumICMP(msg)
	msg[2], msg[3] = byte(c>>8), byte(c)
	if !VerifyChecksum(msg) {
		t.Error("checksummed ICMP message does not verify")
	}
}

func TestCRC32DetectsCorruption(t *testing.T) {
	data := bytes.Repeat([]byte{0xA5, 0x5A}, 100)
	c := CRC32(data)
	data[17] ^= 0x01
	if CRC32(data) == c {
		t.Error("CRC unchanged after corruption")
	}
}

func TestNodeIPRoundTrip(t *testing.T) {
	f := func(n uint16) bool {
		ip := NodeIP(NodeID(n))
		back, ok := IPNode(ip)
		return ok && back == NodeID(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, ok := IPNode(IPAddr(192, 168, 0, 1)); ok {
		t.Error("foreign address mapped to a node")
	}
}

func TestFormatIP(t *testing.T) {
	if got := FormatIP(IPAddr(10, 9, 1, 2)); got != "10.9.1.2" {
		t.Errorf("FormatIP = %q", got)
	}
}

func TestMailboxAddrString(t *testing.T) {
	a := MailboxAddr{Node: 3, Box: 12}
	if a.String() != "3:12" {
		t.Errorf("String = %q", a.String())
	}
}
