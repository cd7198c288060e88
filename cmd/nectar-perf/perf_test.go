package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_seed1.json from the current simulator")

// goldenUnits is how many seed-1 unit digests per workload are checked in.
const goldenUnits = 8

var goldenPath = filepath.Join("testdata", "golden_seed1.json")

// TestGoldenDigests runs the first units of every workload under seed 1
// and requires each to pass its delivery checks and to reproduce the
// checked-in digest of its virtual-time results and metrics snapshot. A
// change that moves any simulated number fails here; one meant to move
// them regenerates the file with -update.
func TestGoldenDigests(t *testing.T) {
	if *update {
		g := map[string][]string{}
		for _, w := range workloads {
			res, err := measure(w, 1, 0, goldenUnits, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range res.Units {
				if u.Err != "" {
					t.Fatalf("%s unit %d: %s", w.name, u.Idx, u.Err)
				}
				g[w.name] = append(g[w.name], u.Digest)
			}
		}
		b, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	for _, w := range workloads {
		want := golden[w.name]
		if len(want) < 2 {
			t.Fatalf("%s: %d golden digests; regenerate with go test -run TestGoldenDigests -update", w.name, len(want))
		}
		res, err := measure(w, 1, 0, 2, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range res.Units {
			switch {
			case u.Err != "":
				t.Errorf("%s unit %d: %s", w.name, u.Idx, u.Err)
			case u.Digest != want[u.Idx]:
				t.Errorf("%s unit %d: digest %s, golden %s", w.name, u.Idx, u.Digest, want[u.Idx])
			}
		}
	}
}

// TestMetricNamesMatchBenchmark keeps BENCHMARK.json's run length,
// workloads and metric names and units in step with what the command
// runs and prints.
func TestMetricNamesMatchBenchmark(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, -seconds defaults to %d", bf.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	for _, w := range workloads {
		if n := w.unitCount(bf.RunSeconds); n < 120 {
			t.Errorf("%s: %d units per run, want at least 120 so that run_ms_p90 has 12 beyond it", w.name, n)
		}
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, command prints %v", e2e, endToEndMetrics)
	}
	if !slices.Equal(layer, perLayerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer %v, command prints %v", layer, perLayerMetrics())
	}
}

func appendVarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

// pbField appends one protobuf field to b: a varint v, or the
// length-delimited msg when msg is non-nil.
func pbField(b []byte, num int, v uint64, msg []byte) []byte {
	if msg == nil {
		return appendVarint(appendVarint(b, uint64(num)<<3), v)
	}
	return append(appendVarint(appendVarint(b, uint64(num)<<3|2), uint64(len(msg))), msg...)
}

// TestAttributionSyntheticProfile decodes a hand-built gzipped profile
// and checks that only samples labelled with a phase are attributed, that
// every one of them lands in exactly one layer, that the shares sum to
// 100, and that runtime frames on top of a stack go to the collector or
// the scheduler while other runtime work goes to the layer that called it.
func TestAttributionSyntheticProfile(t *testing.T) {
	funcs := []string{
		"runtime.mallocgc",                                 // 1
		"nectar/internal/proto/tcp.(*Layer).output",        // 2
		"runtime.chanrecv",                                 // 3
		"nectar/internal/sim.(*Proc).yield",                // 4
		"runtime.memmove",                                  // 5
		"nectar/internal/proto/wire.SumWords",              // 6
		"nectar/internal/sim.(*Coupling).run",              // 7
		"main.rttUnit",                                     // 8
		"runtime.gcBgMarkWorker",                           // 9
		"runtime._ExternalCode",                            // 10
		"nectar.(*Cluster).RunFor",                         // 11
		"runtime.memclrNoHeapPointers",                     // 12
		"bytes.Equal",                                      // 13
		"nectar/internal/rt/threads.(*Sched).dispatchNext", // 14
		"nectar/internal/hw/fiber.(*Link).SendAt",          // 15
		"internal/runtime/syscall.Syscall6",                // 16
		"runtime.futex",                                    // 17
		"nectar/internal/fabric.(*Topology).HubPath",       // 18
		"nectar/internal/obs.(*Registry).Snapshot",         // 19
		"nectar/internal/rt/mailbox.(*Mailbox).BeginGet",   // 20
		"runtime.lock2",                                    // 21
		"runtime.(*mheap).alloc",                           // 22
		"runtime.GC",                                       // 23
		"main.measure",                                     // 24
	}
	strs := append([]string{""}, funcs...)
	strs = append(strs, "workload", "rtt", "phase", "run")
	labelIdx := uint64(len(funcs) + 1) // "workload", then its value, "phase" and its value
	var prof []byte
	for i := range funcs {
		fn := pbField(nil, 1, uint64(i+1), nil)
		fn = pbField(fn, 2, uint64(i+1), nil) // name: string i+1
		prof = pbField(prof, 5, 0, fn)
		// Location i+1 holds function i+1 (one line, no inlining).
		loc := pbField(nil, 1, uint64(i+1), nil)
		loc = pbField(loc, 4, 0, pbField(nil, 1, uint64(i+1), nil))
		prof = pbField(prof, 4, 0, loc)
	}
	cases := []struct {
		stack   []uint64 // location ids, leaf first
		count   uint64
		inPhase bool
		want    string
	}{
		{[]uint64{1, 2}, 7, true, "go.gc"},         // allocation under tcp
		{[]uint64{12, 1, 2}, 1, true, "go.gc"},     // zeroing inside malloc
		{[]uint64{3, 4}, 5, true, "go.sched"},      // proc handoff
		{[]uint64{5, 6}, 3, true, "wire"},          // copying inside wire
		{[]uint64{7, 11, 8}, 2, true, "pdes"},      // coupling scheduler
		{[]uint64{13, 8}, 4, true, "bench"},        // benchmark's own checks
		{[]uint64{10}, 1, true, "go.other"},        // no stack
		{[]uint64{14, 4}, 2, true, "threads"},      // innermost layer wins
		{[]uint64{15, 14}, 1, true, "fiber"},       // leaf layer
		{[]uint64{16, 17}, 1, true, "go.sched"},    // OS wait under futex
		{[]uint64{18, 11}, 2, true, "fabric"},      // fabric build
		{[]uint64{19, 11}, 3, true, "obs"},         // snapshot
		{[]uint64{20, 4, 11}, 1, true, "mailbox"},  // mailbox above sim
		{[]uint64{21, 22, 1, 2}, 2, true, "go.gc"}, // the allocator's lock
		{[]uint64{9}, 6, false, "go.gc"},           // background marking
		{[]uint64{22, 23, 24}, 9, false, "go.gc"},  // the collection forced between units
	}
	var total uint64
	want := map[string]float64{}
	for _, c := range cases {
		var locs []byte // packed
		for _, l := range c.stack {
			locs = appendVarint(locs, l)
		}
		s := pbField(nil, 1, 0, locs)
		s = pbField(s, 2, 0, appendVarint(appendVarint(nil, c.count), c.count*1e7))
		if c.inPhase {
			for k := uint64(0); k < 4; k += 2 {
				label := pbField(nil, 1, labelIdx+k, nil)
				s = pbField(s, 3, 0, pbField(label, 2, labelIdx+k+1, nil))
			}
			total += c.count
			want[c.want] += float64(c.count)
		}
		prof = pbField(prof, 2, 0, s)
	}
	for _, s := range strs {
		prof = pbField(prof, 6, 0, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(cases) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(cases))
	}
	for i, s := range samples {
		if got := attribute(s.stack); got != cases[i].want {
			t.Errorf("sample %d %v: attributed to %s, want %s", i, s.stack, got, cases[i].want)
		}
		if s.hasLabel("phase") != cases[i].inPhase {
			t.Errorf("sample %d %v: labels %v", i, s.stack, s.labels)
		}
	}

	path := filepath.Join(t.TempDir(), "units-0.pprof")
	if err := os.WriteFile(path, gz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	shares, n, err := profileShares([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(total) {
		t.Errorf("%d samples attributed, want the %d inside phases", n, total)
	}
	sum := 0.0
	for l, v := range shares {
		sum += v
		if w := 100 * want[l] / float64(total); math.Abs(v-w) > 1e-9 {
			t.Errorf("%s share %.3f%%, want %.3f%%", l, v, w)
		}
	}
	if math.Abs(sum-100) > 0.1 {
		t.Errorf("shares sum to %.3f%%, want 100", sum)
	}
	if len(shares) != len(layers) {
		t.Errorf("%d layers reported, want %d: %v", len(shares), len(layers), shares)
	}
}

// TestQuartilesMatchPython pins -compare's quartiles to the exclusive
// method of Python's statistics.quantiles, which the benchmark's
// acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, med, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, med, q3)
	}
}
