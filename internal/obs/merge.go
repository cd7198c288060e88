package obs

import (
	"sort"
	"strings"

	"nectar/internal/sim"
)

// Deterministic merging of per-shard observability output (sharded
// execution runs one Observer per shard kernel).
//
// The guiding invariant: a sequential run and a sharded run of the same
// cluster produce the same *multiset* of trace events, captured packets,
// and metric observations; only the interleaving of records that share a
// virtual timestamp — and the per-Observer span numbering — can differ.
// The canonicalizers below therefore order records by content (virtual
// time first) and renumber span ids by first appearance, so both runs
// render to identical bytes.

// MergeSnapshots exports one Snapshot over several registries: counters
// and gauges with the same (layer, name, scope) key sum, histograms merge
// at bucket level, and the result is sorted by (layer, name, scope) — so
// merging the per-shard registries of a run yields the same JSON for every
// shard count. Gauges are read here, from each registry's sources. It is
// the one export, of one registry or of many.
func MergeSnapshots(at sim.Time, regs ...*Registry) *Snapshot {
	s := &Snapshot{AtUS: at.Micros()}
	counters := make(map[metricKey]uint64)
	gauges := make(map[metricKey]uint64)
	addGauge := func(layer Layer, name, scope string, v uint64) {
		gauges[metricKey{layer, name, scope}] += v
	}
	hists := make(map[metricKey]*Histogram)
	for _, r := range regs {
		if r == nil {
			continue
		}
		for k, c := range r.counters {
			counters[k] += c.v
		}
		r.Gauges(addGauge)
		for k, h := range r.hists {
			m := hists[k]
			if m == nil {
				m = &Histogram{}
				hists[k] = m
			}
			m.h.Merge(&h.h)
		}
	}
	for k, v := range counters {
		s.Entries = append(s.Entries, Entry{string(k.layer), k.name, k.scope, "counter", v, nil})
	}
	for k, v := range gauges {
		s.Entries = append(s.Entries, Entry{string(k.layer), k.name, k.scope, "gauge", v, nil})
	}
	for k, h := range hists {
		s.Entries = append(s.Entries, Entry{string(k.layer), k.name, k.scope, "histogram", 0, h.stats()})
	}
	sort.Slice(s.Entries, func(i, j int) bool {
		a, b := s.Entries[i], s.Entries[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Scope < b.Scope
	})
	return s
}

// eventContentLess orders events by content: virtual time first, then
// every content field. Span/Parent ids are deliberately excluded — they
// are per-Observer counters with no cross-run meaning.
func eventContentLess(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Layer != b.Layer {
		return a.Layer < b.Layer
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Arg != b.Arg {
		return a.Arg < b.Arg
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.Bytes != b.Bytes {
		return a.Bytes < b.Bytes
	}
	return a.Kind < b.Kind
}

// CanonicalTrace merges per-stream event slices (one per shard; pass a
// single stream to canonicalize a sequential trace) into one canonical
// trace: stable-sorted by content with virtual time as the primary key,
// with Span/Parent ids renumbered densely by first appearance. Two runs
// that emit the same events — regardless of sharding — canonicalize to
// identical slices.
func CanonicalTrace(streams ...[]Event) []Event {
	type tagged struct {
		e      Event
		stream int
	}
	var all []tagged
	for si, s := range streams {
		for _, e := range s {
			all = append(all, tagged{e, si})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return eventContentLess(all[i].e, all[j].e) })
	type spanKey struct {
		stream int
		id     SpanID
	}
	renum := make(map[spanKey]SpanID)
	next := SpanID(0)
	newID := func(stream int, id SpanID) SpanID {
		if id == 0 {
			return 0
		}
		k := spanKey{stream, id}
		n, ok := renum[k]
		if !ok {
			next++
			n = next
			renum[k] = n
		}
		return n
	}
	out := make([]Event, len(all))
	for i, t := range all {
		e := t.e
		e.Span = newID(t.stream, e.Span)
		e.Parent = newID(t.stream, e.Parent)
		out[i] = e
	}
	return out
}

// FormatEvents renders events one per line (Event.String), the form the
// determinism tests compare byte-for-byte.
//
//nectar:api sharded identity helper: the determinism tests compare traces in this form
func FormatEvents(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CanonicalCapture merges per-shard wire captures into one Capture whose
// packets are stable-sorted by content (virtual time, then link, then the
// decoded fields). Raw frames are not carried over.
//
//nectar:api sharded identity helper: the determinism tests merge per-shard captures with it
func CanonicalCapture(caps ...*Capture) *Capture {
	merged := &Capture{}
	for _, c := range caps {
		if c == nil {
			continue
		}
		merged.Packets = append(merged.Packets, c.Packets...)
	}
	sort.SliceStable(merged.Packets, func(i, j int) bool {
		a, b := merged.Packets[i], merged.Packets[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Link != b.Link {
			return a.Link < b.Link
		}
		if a.Bytes != b.Bytes {
			return a.Bytes < b.Bytes
		}
		if a.Summary != b.Summary {
			return a.Summary < b.Summary
		}
		if a.Dropped != b.Dropped {
			return b.Dropped
		}
		return a.Corrupted != b.Corrupted && b.Corrupted
	})
	return merged
}
