// Command nectar-bench regenerates the paper's evaluation: every table
// and figure of "Protocol Implementation on the Nectar Communication
// Processor" (SIGCOMM 1990), the micro-measurements quoted in the text,
// and the ablations the paper proposes.
//
// Usage:
//
//	nectar-bench [-stats] [-parallel N] [-shards N] [-pdesjson path] [experiment ...]
//
// -stats appends a one-line metrics summary (from the observability
// registry snapshot) to each experiment that exports one.
//
// -parallel N runs independent sweep points (each its own simulated
// cluster on a private kernel) on N worker goroutines; the default is
// GOMAXPROCS. Virtual-time results — every number printed to stdout —
// are byte-identical to a sequential run; only wall clock changes.
// Wall-clock per experiment is reported on stderr so stdout stays
// diffable.
//
// -shards N additionally runs each experiment *cluster* sharded: nodes
// are partitioned round-robin over N simulation kernels coupled by the
// conservative lookahead scheduler, so a single big cluster also uses
// multiple cores. Results remain byte-identical to sequential execution
// (the default, N=1). For pdes, N is the sharded leg's shard count
// (below 2: GOMAXPROCS capped at 4; clamped to 2..8); a count above the
// usable cores still runs, stamped oversubscribed with a WARNING line.
//
// Experiments: table1, fig6, fig7, fig8, netdev, micro, ablate-ipmode,
// ablate-upcall, ablate-switching, ablate-rmpwindow, mailbox-impl,
// pdes (sharded-execution benchmark, writes -pdesjson),
// scale (datacenter-fabric sweep to 65,536 nodes, writes -scalejson;
// -scalemax N caps the largest fabric for smoke runs), all (default).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"nectar/internal/bench"
	"nectar/internal/model"
	"nectar/internal/obs"
)

var (
	statsFlag    = flag.Bool("stats", false, "print metrics-snapshot summaries with each experiment")
	parallelFlag = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for independent sweep points (0 = GOMAXPROCS)")
	shardsFlag   = flag.Int("shards", 1, "shard kernels per experiment cluster (1 = sequential; results identical either way)")
	pdesJSON     = flag.String("pdesjson", "BENCH_pdes.json", "output path for the pdes experiment's JSON report")
	scaleJSON    = flag.String("scalejson", "BENCH_scale.json", "output path for the scale experiment's JSON report")
	scaleMax     = flag.Int("scalemax", 0, "cap the scale experiment's largest fabric at this many nodes (0 = full sweep to 65,536)")
	profFlag     = flag.Bool("prof", false, "profile the pdes experiment's sharded run: BENCH_pdes.json gains a `profile` wall-clock breakdown")
	cpuProfile   = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file (samples carry shard/phase labels under -prof)")
	memProfile   = flag.String("memprofile", "", "write a runtime/pprof heap profile to this file at exit")
)

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	if *parallelFlag == 0 {
		*parallelFlag = runtime.GOMAXPROCS(0)
	}
	bench.SetParallelism(*parallelFlag)
	bench.SetExperimentShards(*shardsFlag)
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nectar-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "nectar-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
	cost := model.Default1990()
	exit := 0
	for _, a := range args {
		start := time.Now()
		if err := run(a, cost); err != nil {
			fmt.Fprintf(os.Stderr, "nectar-bench %s: %v\n", a, err)
			exit = 1
		}
		fmt.Fprintf(os.Stderr, "# %s: %.2fs wall (parallel=%d shards=%d)\n",
			a, time.Since(start).Seconds(), bench.Parallelism(), bench.ExperimentShards())
	}
	// Profiles are flushed explicitly: os.Exit skips deferred calls.
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "nectar-bench: -memprofile: %v\n", err)
			exit = 1
		}
	}
	os.Exit(exit)
}

// writeHeapProfile snapshots live-heap allocations to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // settle the heap so the profile reflects retained memory
	return pprof.WriteHeapProfile(f)
}

func run(name string, cost *model.CostModel) error {
	switch name {
	case "all":
		for _, n := range []string{"table1", "fig6", "fig7", "fig8", "netdev", "micro",
			"ablate-ipmode", "ablate-upcall", "ablate-switching", "ablate-rmpwindow", "ablate-appload", "mailbox-impl"} {
			if err := run(n, cost); err != nil {
				return err
			}
		}
		return nil
	case "table1":
		r, err := bench.Table1(cost)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		printSnaps(r.Metrics)
	case "fig6":
		r, err := bench.Fig6(cost)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		printSnaps(map[string]*obs.Snapshot{"fig6": r.Metrics})
	case "fig7":
		curves, snaps, err := bench.Fig7(cost, nil)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatCurves("Figure 7: CAB-to-CAB throughput vs message size", curves))
		fmt.Println("paper anchors: RMP -> 90 Mbit/s at 8KB; doubling region <= 256B; TCP gap ~= checksum cost")
		printSnaps(snaps)
	case "fig8":
		curves, snaps, err := bench.Fig8(cost, nil)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatCurves("Figure 8: host-to-host throughput vs message size", curves))
		fmt.Println("paper anchors: VME-limited ~30 Mbit/s bus; TCP ~24, RMP ~28; flattens earlier than Fig 7")
		printSnaps(snaps)
	case "netdev":
		r, err := bench.Netdev(cost)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "micro":
		r, err := bench.Micro(cost)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "ablate-ipmode":
		r, err := bench.AblateIPMode(cost)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "ablate-upcall":
		r, err := bench.AblateUpcall(cost)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "ablate-switching":
		r, err := bench.AblateSwitching(cost)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "ablate-rmpwindow":
		r, err := bench.AblateRMPWindow(cost)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "ablate-appload":
		r, err := bench.AblateAppLoad(cost)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "mailbox-impl":
		r, err := bench.AblateMailboxImpl(cost)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "scale":
		r, err := bench.Scale(cost, *scaleMax)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		if *scaleJSON != "" {
			if err := bench.WriteJSON(*scaleJSON, r); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "# wrote %s\n", *scaleJSON)
		}
	case "pdes":
		r, err := bench.Pdes(cost, *shardsFlag, *profFlag)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		if *pdesJSON != "" {
			if err := bench.WriteJSON(*pdesJSON, r); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "# wrote %s\n", *pdesJSON)
		}
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// printSnaps, under -stats, prints a one-line registry summary per run:
// the counters that explain each experiment's number.
func printSnaps(snaps map[string]*obs.Snapshot) {
	if !*statsFlag || len(snaps) == 0 {
		return
	}
	keys := make([]string, 0, len(snaps))
	for k := range snaps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("metrics:")
	for _, k := range keys {
		s := snaps[k]
		if s == nil {
			continue
		}
		fmt.Printf("  %-24s fiber=%dB vme=%dw ctxsw=%d mbox=%d/%d tcp.retrans=%d rmp.timeouts=%d\n",
			k,
			s.Sum(obs.LayerFiber, "bytes"),
			s.Sum(obs.LayerVME, "pio_words"),
			s.Sum(obs.LayerSched, "context_switches"),
			s.Sum(obs.LayerMailbox, "puts"), s.Sum(obs.LayerMailbox, "gets"),
			s.Sum(obs.LayerTCP, "retransmits"),
			s.Sum(obs.LayerRMP, "timeouts"))
	}
	fmt.Println()
}
