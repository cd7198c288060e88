package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names; perf_test.go keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of the simulator sees: host time and
// allocations per simulated message, set-up cost, and retained memory.
// They are measured with tracing off.
var endToEndMetrics = []metricDef{
	{"msgs_per_s", "msg/s"},
	{"run_ms_p50", "ms"},
	{"run_ms_p90", "ms"},
	{"setup_s", "s"},
	{"allocs_per_msg", "allocs/msg"},
	{"alloc_bytes_per_msg", "B/msg"},
	{"setup_alloc_kb", "KB/unit"},
	{"retained_kb_per_unit", "KB/unit"},
}

// layers are the repository's modules as the traced run attributes CPU
// samples to them, plus the Go runtime split into scheduler, collector and
// the rest, and the benchmark's own code.
var layers = []string{
	"sim", "pdes", "threads", "mailbox", "hostif", "rt_other",
	"cab", "fiber", "hub", "vme", "hw_other",
	"datalink", "ip", "tcp", "udp", "nectar", "wire",
	"obs", "pool", "fabric", "cluster",
	"go.sched", "go.gc", "go.other", "bench",
}

// countMetrics are the per-layer work counters, per message or per unit.
var countMetrics = []metricDef{
	{"sim.events_per_msg", "count/msg"},
	{"sim.ns_per_event", "ns"},
	{"sim.goroutines_retained_per_unit", "count/unit"},
	{"threads.ctxsw_per_msg", "count/msg"},
	{"threads.interrupts_per_msg", "count/msg"},
	{"mailbox.ops_per_msg", "count/msg"},
	{"hostif.doorbells_per_msg", "count/msg"},
	{"vme.pio_words_per_msg", "words/msg"},
	{"vme.dma_bytes_per_msg", "B/msg"},
	{"fiber.frames_per_msg", "count/msg"},
	{"fiber.bytes_per_msg", "B/msg"},
	{"fiber.goodput_ratio", "ratio"},
	{"tcp.retransmits_per_msg", "count/msg"},
	{"rmp.retransmits_per_msg", "count/msg"},
	{"pdes.windows_per_unit", "count/unit"},
	{"pdes.events_per_window", "count"},
	{"pdes.cross_shard_frames_per_unit", "count/unit"},
	{"obs.metrics_per_unit", "count/unit"},
	{"obs.snapshot_ms", "ms"},
	{"cluster.materialized_per_unit", "count/unit"},
}

// perLayerMetrics lists every metric of a traced run, in report order.
func perLayerMetrics() []metricDef {
	defs := append([]metricDef(nil), countMetrics...)
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_pct", "%"})
	}
	defs = append(defs,
		metricDef{"phase.setup_pct", "%"},
		metricDef{"phase.run_pct", "%"},
		metricDef{"phase.check_pct", "%"},
		metricDef{"trace.overhead_pct", "%"},
	)
	for _, op := range unitOps {
		defs = append(defs, metricDef{"unit." + op.name + "_ns", "ns"}, metricDef{"unit." + op.name + "_allocs", "allocs"})
	}
	return append(defs,
		metricDef{"ledger.predicted_ns_per_msg", "ns"},
		metricDef{"ledger.accounted_fraction", "fraction"},
	)
}

// layerCounts computes the count metrics of a traced pass.
func (r *passResult) layerCounts() map[string]float64 {
	t := r.totals()
	c := t.counts
	n := float64(t.units)
	per := func(v uint64) float64 { return ratio(float64(v), t.msgs) }
	perUnit := func(v uint64) float64 { return ratio(float64(v), n) }
	return map[string]float64{
		"sim.events_per_msg":               per(c.Events),
		"sim.goroutines_retained_per_unit": ratio(float64(r.Goroutines), float64(r.executions)),
		"threads.ctxsw_per_msg":            per(c.Ctxsw),
		"threads.interrupts_per_msg":       per(c.Interrupts),
		"mailbox.ops_per_msg":              per(c.MailboxOps),
		"hostif.doorbells_per_msg":         per(c.Doorbells),
		"vme.pio_words_per_msg":            per(c.PIOWords),
		"vme.dma_bytes_per_msg":            per(c.DMABytes),
		"fiber.frames_per_msg":             per(c.Frames),
		"fiber.bytes_per_msg":              per(c.FiberBytes),
		"fiber.goodput_ratio":              ratio(t.payloadBytes, float64(c.FiberBytes)),
		"tcp.retransmits_per_msg":          per(c.TCPRetrans),
		"rmp.retransmits_per_msg":          per(c.RMPRetrans),
		"pdes.windows_per_unit":            perUnit(c.Windows),
		"pdes.events_per_window":           ratio(float64(c.Events), float64(c.Windows)),
		"pdes.cross_shard_frames_per_unit": perUnit(c.CrossShard),
		"obs.metrics_per_unit":             perUnit(c.Metrics),
		"obs.snapshot_ms":                  quantile(t.snapMS, 0.5),
		"cluster.materialized_per_unit":    perUnit(c.Materialized),
	}
}

// report is one workload run's outcome, printed for people and as the
// closing JSON line.
type report struct {
	Workload      string             `json:"workload"`
	Seed          uint64             `json:"seed"`
	Traced        bool               `json:"traced"`
	Units         int                `json:"units"`
	Failed        int                `json:"failed"`
	ErrorRate     float64            `json:"error_rate"`
	VirtualDigest string             `json:"virtual_digest"`
	RefSpeed      float64            `json:"ref_speed"`
	GoMaxProcs    int                `json:"gomaxprocs"`
	NumCPU        int                `json:"num_cpu"`
	GoVersion     string             `json:"go_version"`
	Metrics       map[string]float64 `json:"metrics"`

	defs   []metricDef
	errors []string
	notes  []string
}

func newReport(w *workload, seed uint64, traced bool, res *passResult, defs []metricDef, metrics map[string]float64) *report {
	failed, errors := res.failures()
	return &report{
		Workload:      w.name,
		Seed:          seed,
		Traced:        traced,
		Units:         len(res.Units),
		Failed:        failed,
		ErrorRate:     ratio(float64(failed), float64(len(res.Units))),
		VirtualDigest: res.virtualDigest(),
		RefSpeed:      quantile(res.speeds, 0.5),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		GoVersion:     runtime.Version(),
		Metrics:       metrics,
		defs:          defs,
		errors:        errors,
	}
}

// finish prints the report and appends it to the -json file, if any.
func (r *report) finish(jsonOut string) error {
	r.print(os.Stdout)
	if jsonOut == "" {
		return nil
	}
	return r.appendJSON(jsonOut)
}

// print writes the human-readable report, then the result line: one JSON
// object with correct, attempted, failed and every metric with its unit.
func (r *report) print(w io.Writer) {
	mode := "end-to-end, tracing off"
	if r.Traced {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "nectar-perf %s (%s): seed=%d units=%d gomaxprocs=%d num_cpu=%d %s\n",
		r.Workload, mode, r.Seed, r.Units, r.GoMaxProcs, r.NumCPU, r.GoVersion)
	for _, d := range r.defs {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	fmt.Fprintf(w, "  %-36s %16.6g fraction (%d of %d units failed)\n", "error_rate", r.ErrorRate, r.Failed, r.Units)
	fmt.Fprintf(w, "  %-36s %16s\n", "virtual_digest", r.VirtualDigest)
	fmt.Fprintf(w, "  %-36s %16.4g (median host speed ÷ reference; times are in reference seconds)\n", "ref_speed", r.RefSpeed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, e := range r.errors {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Units, r.Failed, map[string]value{}}
	for _, d := range r.defs {
		line.Metrics[d.name] = value{finite(r.Metrics[d.name]), d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // only on unmarshalable types; the line has none
	}
	fmt.Fprintf(w, "%s\n", b)
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// appendJSON appends the report as one JSONL record to path, for -compare.
func (r *report) appendJSON(path string) error {
	rec := *r
	rec.Metrics = map[string]float64{}
	for k, v := range r.Metrics {
		rec.Metrics[k] = finite(v)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
