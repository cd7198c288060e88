package obs

import (
	"encoding/json"
	"fmt"
	"strings"

	"nectar/internal/prof"
	"nectar/internal/sim"
)

// metricKey identifies one metric: the layer that owns it, the metric
// name, and a scope (node or link identity, e.g. "cab1", "host2",
// "fiber.a-b", or "total").
type metricKey struct {
	layer Layer
	name  string
	scope string
}

// Counter is a monotonically increasing per-registry counter. Methods
// are nil-tolerant and allocation-free.
type Counter struct{ v uint64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram accumulates virtual-time durations into log2 buckets: a
// prof.Hist over nanoseconds, typed by sim.Duration. Observe is
// allocation-free; percentiles are derived at snapshot time.
type Histogram struct{ h prof.Hist }

// Observe records one duration (negative durations clamp to zero).
func (h *Histogram) Observe(d sim.Duration) {
	if h == nil {
		return
	}
	h.h.Observe(d.Nanos())
}

// HistStats is the exported summary of a Histogram.
type HistStats struct {
	Count uint64  `json:"count"`
	SumUS float64 `json:"sum_us"`
	MinUS float64 `json:"min_us"`
	P50US float64 `json:"p50_us"`
	P90US float64 `json:"p90_us"`
	P99US float64 `json:"p99_us"`
	MaxUS float64 `json:"max_us"`
}

// Stats summarizes the histogram: count, sum, min/max, and the p50, p90
// and p99 upper bounds at bucket resolution.
func (h *Histogram) Stats() *HistStats {
	return h.stats()
}

// stats summarizes the histogram in microseconds.
func (h *Histogram) stats() *HistStats {
	s := h.h.Stats(1e3)
	return &HistStats{
		Count: s.Count,
		SumUS: s.Sum,
		MinUS: s.Min,
		P50US: s.P50,
		P90US: s.P90,
		P99US: s.P99,
		MaxUS: s.Max,
	}
}

// Source is an object that reports its own gauges: at snapshot time the
// registry calls Gauges, and the object emits the current value of each
// of its instruments — its own fields — under a fixed (layer, name,
// scope) key. Gauges must be deterministic and must emit every key it
// owns on every call, zero or not; within one registry no key may be
// emitted by two sources or twice by one.
type Source interface {
	Gauges(emit func(layer Layer, name, scope string, v uint64))
}

// Registry holds all metrics registered against one kernel's Observer.
// It is not safe for concurrent use — like everything else in the sim,
// exactly one goroutine touches it at a time.
type Registry struct {
	counters map[metricKey]*Counter
	hists    map[metricKey]*Histogram
	sources  []Source
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[metricKey]*Counter),
		hists:    make(map[metricKey]*Histogram),
	}
}

// Counter returns (creating on first use) the named counter. A nil
// registry returns a nil Counter, whose methods are no-ops.
func (r *Registry) Counter(layer Layer, name, scope string) *Counter {
	if r == nil {
		return nil
	}
	k := metricKey{layer, name, scope}
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Register adds a gauge source, sampled at every snapshot. Registering
// is one append: the source's fields are the instruments, so nothing is
// allocated per metric. A nil registry ignores the call.
func (r *Registry) Register(s Source) {
	if r == nil {
		return
	}
	r.sources = append(r.sources, s)
}

// Gauges emits the gauges of every registered source, in registration
// order, so a Registry is itself a Source. A nil registry emits nothing.
func (r *Registry) Gauges(emit func(layer Layer, name, scope string, v uint64)) {
	if r == nil {
		return
	}
	for _, s := range r.sources {
		s.Gauges(emit)
	}
}

// Histogram returns (creating on first use) the named histogram. A nil
// registry returns a nil Histogram, whose Observe is a no-op.
func (r *Registry) Histogram(layer Layer, name, scope string) *Histogram {
	if r == nil {
		return nil
	}
	k := metricKey{layer, name, scope}
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// Entry is one metric in a Snapshot.
type Entry struct {
	Layer string     `json:"layer"`
	Name  string     `json:"name"`
	Scope string     `json:"scope"`
	Kind  string     `json:"kind"` // "counter", "gauge", or "histogram"
	Value uint64     `json:"value"`
	Hist  *HistStats `json:"hist,omitempty"`
}

// Snapshot is a point-in-time export of a Registry, sorted by
// (layer, name, scope) so two identical runs serialize identically.
type Snapshot struct {
	AtUS    float64 `json:"at_us"` // virtual time of the snapshot
	Entries []Entry `json:"metrics"`
}

// Snapshot samples every counter, gauge, and histogram: a merge of one
// registry.
func (r *Registry) Snapshot(at sim.Time) *Snapshot { return MergeSnapshots(at, r) }

// Get returns the entry for (layer, name, scope), if present.
func (s *Snapshot) Get(layer Layer, name, scope string) (Entry, bool) {
	for _, e := range s.Entries {
		if e.Layer == string(layer) && e.Name == name && e.Scope == scope {
			return e, true
		}
	}
	return Entry{}, false
}

// Value returns the counter/gauge value for (layer, name, scope), 0 if
// absent.
func (s *Snapshot) Value(layer Layer, name, scope string) uint64 {
	e, _ := s.Get(layer, name, scope)
	return e.Value
}

// Sum adds the values of every entry with the given layer and name
// across all scopes (e.g. total mailbox puts across nodes).
func (s *Snapshot) Sum(layer Layer, name string) uint64 {
	var n uint64
	for _, e := range s.Entries {
		if e.Layer == string(layer) && e.Name == name {
			n += e.Value
		}
	}
	return n
}

// JSON renders the snapshot as deterministic, indented JSON.
func (s *Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil { // only on unmarshalable types; Snapshot has none
		panic(err)
	}
	return b
}

// Table renders the snapshot as an aligned text table.
func (s *Snapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics @ %.3fus\n", s.AtUS)
	fmt.Fprintf(&b, "  %-9s %-22s %-12s %s\n", "layer", "metric", "scope", "value")
	for _, e := range s.Entries {
		if e.Hist != nil {
			fmt.Fprintf(&b, "  %-9s %-22s %-12s n=%d p50=%.1fus p90=%.1fus p99=%.1fus max=%.1fus\n",
				e.Layer, e.Name, e.Scope, e.Hist.Count, e.Hist.P50US, e.Hist.P90US, e.Hist.P99US, e.Hist.MaxUS)
			continue
		}
		fmt.Fprintf(&b, "  %-9s %-22s %-12s %d\n", e.Layer, e.Name, e.Scope, e.Value)
	}
	return b.String()
}
