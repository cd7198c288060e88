package tcp

import (
	"nectar/internal/obs"

	"testing"
	"testing/quick"
)

func TestSeqComparisons(t *testing.T) {
	cases := []struct {
		a, b    uint32
		lt, leq bool
	}{
		{0, 1, true, true},
		{1, 0, false, false},
		{5, 5, false, true},
		{0xFFFFFFF0, 0x10, true, true},   // wraparound: a is "before" b
		{0x10, 0xFFFFFFF0, false, false}, // and not vice versa
		{0, 0x7FFFFFFF, true, true},
	}
	for _, c := range cases {
		if got := seqLT(c.a, c.b); got != c.lt {
			t.Errorf("seqLT(%#x,%#x) = %v, want %v", c.a, c.b, got, c.lt)
		}
		if got := seqLEQ(c.a, c.b); got != c.leq {
			t.Errorf("seqLEQ(%#x,%#x) = %v, want %v", c.a, c.b, got, c.leq)
		}
	}
}

func TestSeqArithmeticProperties(t *testing.T) {
	// Within half the sequence space, seqLT agrees with ordinary addition:
	// a < a+d for 0 < d < 2^31.
	f := func(a uint32, dRaw uint32) bool {
		d := dRaw % 0x7FFFFFFF
		if d == 0 {
			d = 1
		}
		b := a + d
		return seqLT(a, b) && !seqLT(b, a) && seqLEQ(a, b) && !seqLEQ(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Reflexivity of seqLEQ, irreflexivity of seqLT.
	g := func(a uint32) bool { return seqLEQ(a, a) && !seqLT(a, a) }
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestStateStrings(t *testing.T) {
	for s := Closed; s <= TimeWaitState; s++ {
		if s.String() == "" {
			t.Errorf("state %d has no name", int(s))
		}
	}
	if Established.String() != "Established" {
		t.Errorf("Established.String() = %q", Established.String())
	}
}

func TestProtocolConstantsSane(t *testing.T) {
	if MSS > DefaultWindow {
		t.Error("MSS exceeds the advertised window; senders would deadlock")
	}
	if RTO <= 0 || ConnectTimeout <= RTO {
		t.Error("timeout ordering broken")
	}
}

func TestStatsSnapshot(t *testing.T) {
	// A snapshot publishes each registry-backed counter under the tcp
	// layer, field for field.
	r := obs.NewRegistry()
	l := &Layer{
		segsIn:      r.Counter(obs.LayerTCP, "segs_in", "cab1"),
		segsOut:     r.Counter(obs.LayerTCP, "segs_out", "cab1"),
		badChecksum: r.Counter(obs.LayerTCP, "bad_checksum", "cab1"),
		retransmits: r.Counter(obs.LayerTCP, "retransmits", "cab1"),
		drops:       r.Counter(obs.LayerTCP, "drops", "cab1"),
	}
	for _, c := range []struct {
		c    *obs.Counter
		name string
		n    uint64
	}{{l.segsIn, "segs_in", 3}, {l.segsOut, "segs_out", 5}, {l.badChecksum, "bad_checksum", 1},
		{l.retransmits, "retransmits", 2}, {l.drops, "drops", 4}} {
		for range c.n {
			c.c.Inc()
		}
		if v := obs.MergeSnapshots(0, r).Value(obs.LayerTCP, c.name, "cab1"); v != c.n {
			t.Errorf("registry %s = %d, want %d", c.name, v, c.n)
		}
	}
}

// counter reads one of l's registry counters through a snapshot.
func (l *Layer) counter(name string) uint64 {
	return obs.MergeSnapshots(0, l.obs.Metrics()).Value(obs.LayerTCP, name, l.rt.CAB().Scope())
}
