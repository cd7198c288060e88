package wire

import (
	"reflect"
	"testing"
)

// headerCodec is the codec every wire header implements.
type headerCodec interface {
	Marshal(b []byte)
	Unmarshal(b []byte) error
}

// headerCodecs are the six header codecs a received frame passes
// through, each with its encoded length.
var headerCodecs = []struct {
	name string
	n    int
	new  func() headerCodec
}{
	{"datalink", DatalinkHeaderLen, func() headerCodec { return new(DatalinkHeader) }},
	{"nectar", NectarHeaderLen, func() headerCodec { return new(NectarHeader) }},
	{"ipv4", IPv4HeaderLen, func() headerCodec { return new(IPv4Header) }},
	{"udp", UDPHeaderLen, func() headerCodec { return new(UDPHeader) }},
	{"tcp", TCPHeaderLen, func() headerCodec { return new(TCPHeader) }},
	{"icmp", ICMPHeaderLen, func() headerCodec { return new(ICMPHeader) }},
}

// FuzzHeaders feeds arbitrary bytes to the header codec which selects:
// Unmarshal never panics, and a header it accepts survives Marshal and
// Unmarshal unchanged. The seed corpus (testdata/fuzz/FuzzHeaders) holds
// each header of real frames from a two-node exchange of datagram, RMP,
// RRP, TCP, UDP and ICMP traffic.
func FuzzHeaders(f *testing.F) {
	f.Fuzz(func(t *testing.T, which uint8, b []byte) {
		c := headerCodecs[int(which)%len(headerCodecs)]
		h := c.new()
		if h.Unmarshal(b) != nil {
			return
		}
		buf := make([]byte, c.n)
		h.Marshal(buf)
		again := c.new()
		if err := again.Unmarshal(buf); err != nil {
			t.Fatalf("%s: Unmarshal of a marshaled header: %v", c.name, err)
		}
		if !reflect.DeepEqual(h, again) {
			t.Fatalf("%s: round trip %+v became %+v", c.name, h, again)
		}
	})
}
