package obs

import "testing"

// FuzzDecode: Decode summarizes any frame, however malformed, without
// panicking. The seed corpus (testdata/fuzz/FuzzDecode) holds real frames
// from a two-node exchange of datagram, RMP, RRP, TCP, UDP and ICMP
// traffic.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		if Decode(frame) == "" {
			t.Fatal("empty summary")
		}
	})
}
