package obs

// Edge cases of the sharded-observability canonicalizers: merging no
// registries, merging exactly one (which must reproduce the sequential
// snapshot byte for byte), histogram bucket composition across shards,
// and the tie/renumbering rules of CanonicalTrace and CanonicalCapture.

import (
	"testing"

	"nectar/internal/sim"
)

// TestMergeSnapshotsEmpty covers the degenerate shard sets: no
// registries, only nil registries, and empty registries all produce an
// entry-free snapshot that still stamps the virtual time.
func TestMergeSnapshotsEmpty(t *testing.T) {
	for _, tc := range []struct {
		name string
		regs []*Registry
	}{
		{"none", nil},
		{"all nil", []*Registry{nil, nil}},
		{"empty", []*Registry{NewRegistry(), NewRegistry()}},
	} {
		s := MergeSnapshots(sim.Time(42*sim.Microsecond), tc.regs...)
		if len(s.Entries) != 0 {
			t.Errorf("%s: %d entries, want none", tc.name, len(s.Entries))
		}
		if s.AtUS != 42 {
			t.Errorf("%s: at_us = %v, want 42", tc.name, s.AtUS)
		}
	}
}

// TestMergeSnapshotsSingle pins the single-shard identity: merging one
// registry must serialize to the
// JSON a direct per-registry export always produced, entries sorted by
// (layer, name, scope); MergeSnapshots may not reorder, rename, or
// restate anything.
func TestMergeSnapshotsSingle(t *testing.T) {
	r := NewRegistry()
	add(r.Counter(LayerFiber, "frames", "hub"), 7)
	r.Counter(LayerTCP, "retransmits", "cab0").Inc()
	r.Register(&testGauge{LayerMailbox, "depth", "n1", 3})
	h := r.Histogram(LayerTCP, "ack_rtt", "cab0")
	h.Observe(5 * sim.Microsecond)
	h.Observe(9 * sim.Microsecond)

	at := sim.Time(100 * sim.Microsecond)
	want := `{
  "at_us": 100,
  "metrics": [
    {
      "layer": "fiber",
      "name": "frames",
      "scope": "hub",
      "kind": "counter",
      "value": 7
    },
    {
      "layer": "mailbox",
      "name": "depth",
      "scope": "n1",
      "kind": "gauge",
      "value": 3
    },
    {
      "layer": "tcp",
      "name": "ack_rtt",
      "scope": "cab0",
      "kind": "histogram",
      "value": 0,
      "hist": {
        "count": 2,
        "sum_us": 14,
        "min_us": 5,
        "p50_us": 8.191,
        "p90_us": 8.191,
        "p99_us": 8.191,
        "max_us": 9
      }
    },
    {
      "layer": "tcp",
      "name": "retransmits",
      "scope": "cab0",
      "kind": "counter",
      "value": 1
    }
  ]
}`
	if got := string(MergeSnapshots(at, r).JSON()); got != want {
		t.Errorf("single-registry merge:\n%s\nwant:\n%s", got, want)
	}
}

// TestMergeSnapshotsSums checks cross-shard composition: counters and
// gauges under the same (layer, name, scope) key sum, keys present in
// only one shard survive, and a nil shard in the middle is skipped.
func TestMergeSnapshotsSums(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	add(a.Counter(LayerFiber, "frames", "hub"), 10)
	add(b.Counter(LayerFiber, "frames", "hub"), 32)
	a.Counter(LayerRMP, "timeouts", "cab0").Inc() // shard-a only
	a.Register(&testGauge{LayerMailbox, "depth", "n1", 2})
	b.Register(&testGauge{LayerMailbox, "depth", "n1", 5})

	s := MergeSnapshots(0, a, nil, b)
	if e, ok := s.Get(LayerFiber, "frames", "hub"); !ok || e.Value != 42 {
		t.Errorf("frames = %+v, want summed value 42", e)
	}
	if e, ok := s.Get(LayerRMP, "timeouts", "cab0"); !ok || e.Value != 1 {
		t.Errorf("single-shard counter = %+v, want 1", e)
	}
	if e, ok := s.Get(LayerMailbox, "depth", "n1"); !ok || e.Value != 7 || e.Kind != "gauge" {
		t.Errorf("gauge = %+v, want summed value 7", e)
	}
}

// TestMergeSnapshotsHistogramBuckets verifies exact percentile
// reproduction: observations split across shards must merge to the same
// stats (count, sum, extrema, p50/p90/p99) as the same observations in
// one registry.
func TestMergeSnapshotsHistogramBuckets(t *testing.T) {
	one := NewRegistry()
	a, b := NewRegistry(), NewRegistry()
	for i := 1; i <= 100; i++ {
		d := sim.Duration(i) * sim.Microsecond
		one.Histogram(LayerTCP, "ack_rtt", "cab0").Observe(d)
		if i%2 == 0 {
			a.Histogram(LayerTCP, "ack_rtt", "cab0").Observe(d)
		} else {
			b.Histogram(LayerTCP, "ack_rtt", "cab0").Observe(d)
		}
	}
	seq, ok := MergeSnapshots(0, one).Get(LayerTCP, "ack_rtt", "cab0")
	if !ok {
		t.Fatal("sequential histogram missing")
	}
	shd, ok := MergeSnapshots(0, a, b).Get(LayerTCP, "ack_rtt", "cab0")
	if !ok {
		t.Fatal("merged histogram missing")
	}
	if *seq.Hist != *shd.Hist {
		t.Errorf("merged stats differ:\nseq: %+v\nshd: %+v", *seq.Hist, *shd.Hist)
	}
	if shd.Hist.Count != 100 || shd.Hist.P90US < shd.Hist.P50US || shd.Hist.P99US < shd.Hist.P90US {
		t.Errorf("implausible merged stats: %+v", *shd.Hist)
	}
}

// TestCanonicalTraceEmpty: no streams, and streams with no events, both
// canonicalize to an empty trace.
func TestCanonicalTraceEmpty(t *testing.T) {
	if got := CanonicalTrace(); len(got) != 0 {
		t.Errorf("CanonicalTrace() = %d events, want 0", len(got))
	}
	if got := CanonicalTrace(nil, []Event{}); len(got) != 0 {
		t.Errorf("CanonicalTrace(nil, empty) = %d events, want 0", len(got))
	}
}

// TestCanonicalTraceSingleStream: canonicalizing one stream preserves
// content order for time-sorted input and renumbers span ids densely by
// first appearance, so arbitrary per-Observer ids become comparable.
func TestCanonicalTraceSingleStream(t *testing.T) {
	in := []Event{
		{At: 10, Node: 1, Layer: LayerCAB, Kind: Begin, Name: "tx", Span: 77},
		{At: 20, Node: 1, Layer: LayerCAB, Kind: Begin, Name: "dma", Span: 99, Parent: 77},
		{At: 30, Node: 1, Layer: LayerCAB, Kind: End, Name: "dma", Span: 99, Parent: 77},
		{At: 40, Node: 1, Layer: LayerCAB, Kind: End, Name: "tx", Span: 77},
	}
	out := CanonicalTrace(in)
	if len(out) != len(in) {
		t.Fatalf("%d events out, want %d", len(out), len(in))
	}
	for i, e := range out {
		if e.At != in[i].At || e.Name != in[i].Name {
			t.Fatalf("event %d reordered: %+v", i, e)
		}
	}
	if out[0].Span != 1 || out[1].Span != 2 {
		t.Errorf("span ids not renumbered by first appearance: %d, %d (want 1, 2)", out[0].Span, out[1].Span)
	}
	if out[1].Parent != out[0].Span || out[2].Parent != out[0].Span {
		t.Errorf("parent links broken by renumbering: %+v", out[1])
	}
	if out[3].Span != out[0].Span {
		t.Errorf("span close got a fresh id: begin %d, end %d", out[0].Span, out[3].Span)
	}
}

// TestCanonicalTraceTies: events sharing a virtual timestamp order by
// content (node, then layer, then name, ...) regardless of which stream
// carried them, and exact duplicates across streams both survive (the
// merge preserves the multiset, it does not dedup).
func TestCanonicalTraceTies(t *testing.T) {
	x := Event{At: 50, Node: 2, Layer: LayerFiber, Kind: Instant, Name: "dl.tx"}
	y := Event{At: 50, Node: 1, Layer: LayerFiber, Kind: Instant, Name: "dl.tx"}
	z := Event{At: 50, Node: 1, Layer: LayerDatalink, Kind: Instant, Name: "dispatch"}

	out := CanonicalTrace([]Event{x}, []Event{y, z})
	if len(out) != 3 {
		t.Fatalf("%d events, want 3", len(out))
	}
	// Content order: node 1 before node 2; within node 1, layer
	// "datalink" sorts before "fiber".
	if out[0] != z || out[1] != y || out[2] != x {
		t.Errorf("tie order wrong:\n0: %+v\n1: %+v\n2: %+v", out[0], out[1], out[2])
	}

	dup := Event{At: 7, Node: 3, Layer: LayerRMP, Kind: Instant, Name: "ack", Seq: 4}
	if got := CanonicalTrace([]Event{dup}, []Event{dup}); len(got) != 2 {
		t.Errorf("duplicate events collapsed: %d, want 2", len(got))
	}
}

// TestCanonicalTraceShardingInvariance is the invariant the sharded
// determinism tests rely on: the same multiset of events, split across
// streams differently (and with clashing per-stream span ids), formats
// identically after canonicalization.
func TestCanonicalTraceShardingInvariance(t *testing.T) {
	mk := func(at sim.Time, node int, name string, span SpanID) Event {
		return Event{At: at, Node: node, Layer: LayerCAB, Kind: Begin, Name: name, Span: span}
	}
	// Sequential observer: one id space.
	seq := []Event{mk(10, 0, "tx", 1), mk(10, 1, "tx", 2), mk(20, 0, "rx", 3), mk(20, 1, "rx", 4)}
	// Two shards: same events, per-shard id spaces that collide (both
	// use span 1 and 2 for different work).
	s0 := []Event{mk(10, 0, "tx", 1), mk(20, 0, "rx", 2)}
	s1 := []Event{mk(10, 1, "tx", 1), mk(20, 1, "rx", 2)}

	if got, want := FormatEvents(CanonicalTrace(s0, s1)), FormatEvents(CanonicalTrace(seq)); got != want {
		t.Errorf("sharded trace canonicalizes differently:\nseq:\n%s\nshd:\n%s", want, got)
	}
}

// TestCanonicalCapture covers the capture merge edge cases: nil and
// empty captures are skipped, timestamp ties order by link then
// content, and flag-only differences order clean-before-flagged.
func TestCanonicalCapture(t *testing.T) {
	if got := CanonicalCapture(nil, &Capture{}); len(got.Packets) != 0 {
		t.Errorf("empty merge produced %d packets", len(got.Packets))
	}

	p := func(link string, bytes int, dropped bool) CapturedPacket {
		return CapturedPacket{At: 100, Link: link, Bytes: bytes, Summary: "dg", Dropped: dropped}
	}
	a := &Capture{Packets: []CapturedPacket{p("hub<->cab1", 64, false)}}
	b := &Capture{Packets: []CapturedPacket{p("hub<->cab0", 64, true), p("hub<->cab0", 64, false)}}
	out := CanonicalCapture(a, nil, b)
	if len(out.Packets) != 3 {
		t.Fatalf("%d packets, want 3", len(out.Packets))
	}
	if out.Packets[0].Link != "hub<->cab0" || out.Packets[2].Link != "hub<->cab1" {
		t.Errorf("link tie-break wrong: %+v", out.Packets)
	}
	if out.Packets[0].Dropped || !out.Packets[1].Dropped {
		t.Errorf("clean packet must sort before its dropped twin: %+v", out.Packets[:2])
	}
}
