package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json that -compare applies and
// perf_test.go checks.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords reads the JSONL records a -json file accumulated.
func readRecords(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of xs
// with the exclusive method of Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return ratio(q3-q1, med)
}

// compareRuns applies BENCHMARK.json's bounds to every (workload,
// end-to-end metric) of two sets of untraced runs, a the baseline and b
// the candidate. It reports each pair as improved, worse, unchanged or
// unresolved (a spread wider than the bound), and fails when the runs
// disagree on a virtual digest or any run had a failed unit.
func compareRuns(out io.Writer, bf *benchmarkFile, a, b []report) bool {
	ok := true
	digests := map[string]map[string]bool{} // workload/seed -> digests seen
	byWorkload := func(rs []report) map[string][]report {
		m := map[string][]report{}
		for _, r := range rs {
			if r.Failed > 0 {
				fmt.Fprintf(out, "FAIL %s seed %d: %d of %d units failed\n", r.Workload, r.Seed, r.Failed, r.Units)
				ok = false
			}
			key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
			if digests[key] == nil {
				digests[key] = map[string]bool{}
			}
			digests[key][r.VirtualDigest] = true
			if !r.Traced {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	for _, key := range sortedKeys(digests) {
		if len(digests[key]) > 1 {
			fmt.Fprintf(out, "FAIL %s: virtual digests differ: %v\n", key, sortedKeys(digests[key]))
			ok = false
		}
	}

	fmt.Fprintf(out, "%-8s %-22s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "a median", "b median", "change", "a IQR", "b IQR", "bound", "verdict")
	for _, w := range bf.Workloads {
		ra, rb := wa[w.Name], wb[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range bf.EndToEnd {
			var xa, xb []float64
			for _, r := range ra {
				xa = append(xa, r.Metrics[m.Name])
			}
			for _, r := range rb {
				xb = append(xb, r.Metrics[m.Name])
			}
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			// worse is the relative change in the direction that hurts.
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(xa), spread(xb)
			verdict := "unchanged"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
				if allBetter(xa, xb, m.Better == "higher") {
					verdict = "improved"
				}
			case worse > m.Bound:
				verdict = "worse"
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(out, "%-8s %-22s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*ratio(mb-ma, ma), 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return ok
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, higher bool) bool {
	for _, x := range a {
		for _, y := range b {
			if (higher && y <= x) || (!higher && y >= x) {
				return false
			}
		}
	}
	return true
}
