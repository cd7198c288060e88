package bench

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/sim"
)

// withShards runs fn with the experiment shard count set to n, restoring
// the sequential default afterwards.
func withShards(t *testing.T, n int, fn func()) {
	t.Helper()
	old := ExperimentShards()
	SetExperimentShards(n)
	defer SetExperimentShards(old)
	fn()
}

// snapsJSON renders a snapshot map deterministically for comparison
// (map iteration order does not matter: keys sort under json.Marshal).
func snapsJSON(t *testing.T, snaps map[string]*obs.Snapshot) string {
	t.Helper()
	m := make(map[string]json.RawMessage, len(snaps))
	for k, s := range snaps {
		if s != nil {
			m[k] = s.JSON()
		}
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestShardedExperimentsIdentical asserts the contract SetExperimentShards
// documents: opting experiment clusters into sharded execution changes
// only wall-clock time — every table and metrics snapshot is
// byte-identical to the sequential run's. Covered here on reduced sweeps
// of the figure experiments (CAB-to-CAB and host-to-host paths), Table 1,
// Figure 6, the micro-measurements, the network-device comparison and the
// ablations.
func TestShardedExperimentsIdentical(t *testing.T) {
	sizes := []int{64, 1024}

	t.Run("fig7", func(t *testing.T) {
		seqC, seqS, err := Fig7(nil, sizes)
		if err != nil {
			t.Fatal(err)
		}
		var shdC []Curve
		var shdS map[string]*obs.Snapshot
		withShards(t, 2, func() {
			shdC, shdS, err = Fig7(nil, sizes)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := FormatCurves("x", shdC), FormatCurves("x", seqC); got != want {
			t.Errorf("sharded fig7 differs:\nseq:\n%s\nshd:\n%s", want, got)
		}
		if got, want := snapsJSON(t, shdS), snapsJSON(t, seqS); got != want {
			t.Error("sharded fig7 snapshots differ from sequential")
		}
	})

	t.Run("fig8", func(t *testing.T) {
		seqC, seqS, err := Fig8(nil, sizes)
		if err != nil {
			t.Fatal(err)
		}
		var shdC []Curve
		var shdS map[string]*obs.Snapshot
		withShards(t, 2, func() {
			shdC, shdS, err = Fig8(nil, sizes)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := FormatCurves("x", shdC), FormatCurves("x", seqC); got != want {
			t.Errorf("sharded fig8 differs:\nseq:\n%s\nshd:\n%s", want, got)
		}
		if got, want := snapsJSON(t, shdS), snapsJSON(t, seqS); got != want {
			t.Error("sharded fig8 snapshots differ from sequential")
		}
	})

	t.Run("table1", func(t *testing.T) {
		seq, err := Table1(nil)
		if err != nil {
			t.Fatal(err)
		}
		var shd *Table1Result
		withShards(t, 2, func() {
			shd, err = Table1(nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		if shd.Format() != seq.Format() {
			t.Errorf("sharded table1 differs:\nseq:\n%s\nshd:\n%s", seq.Format(), shd.Format())
		}
	})

	t.Run("fig6", func(t *testing.T) {
		seq, err := Fig6(nil)
		if err != nil {
			t.Fatal(err)
		}
		var shd *Fig6Result
		withShards(t, 2, func() {
			shd, err = Fig6(nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		if shd.Format() != seq.Format() {
			t.Errorf("sharded fig6 differs:\nseq:\n%s\nshd:\n%s", seq.Format(), shd.Format())
		}
	})

	t.Run("micro", func(t *testing.T) {
		seq, err := Micro(nil)
		if err != nil {
			t.Fatal(err)
		}
		var shd *MicroResult
		withShards(t, 2, func() {
			shd, err = Micro(nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		if shd.Format() != seq.Format() {
			t.Errorf("sharded micro differs:\nseq:\n%s\nshd:\n%s", seq.Format(), shd.Format())
		}
	})

	// The network-device comparison and the ablations, each at 2 and 4
	// shards. ablate-rmpwindow once stalled the coupling at every shard
	// count: a delayed send left its transmit-preparation bracket open
	// with a ready time behind the domain's activity floor.
	for _, e := range []struct {
		name string
		run  func() (string, error)
	}{
		{"netdev", formatted(Netdev)},
		{"ablate-ipmode", formatted(AblateIPMode)},
		{"ablate-upcall", formatted(AblateUpcall)},
		{"ablate-switching", formatted(AblateSwitching)},
		{"mailbox-impl", formatted(AblateMailboxImpl)},
		{"ablate-rmpwindow", formatted(AblateRMPWindow)},
		{"ablate-appload", formatted(AblateAppLoad)},
	} {
		t.Run(e.name, func(t *testing.T) {
			seq, err := e.run()
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{2, 4} {
				var shd string
				withShards(t, n, func() {
					shd, err = e.run()
				})
				if err != nil {
					t.Fatalf("%d shards: %v", n, err)
				}
				if shd != seq {
					t.Errorf("%d shards differ:\nseq:\n%s\nshd:\n%s", n, seq, shd)
				}
			}
		})
	}
}

// formatted runs an experiment at the default cost model and returns its
// printed table.
func formatted[R interface{ Format() string }](run func(*model.CostModel) (R, error)) func() (string, error) {
	return func() (string, error) {
		r, err := run(nil)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	}
}

// TestPdesReport runs the pdes experiment end to end on a small workload
// shape by driving runLeg directly, requiring identical virtual-time
// output between sequential and 2-shard runs. The sharded leg runs under
// the wall-clock profiler, which must not perturb virtual time, and must
// produce an internally consistent breakdown.
func TestPdesReport(t *testing.T) {
	// Round-robin partitioning on purpose: it forces every flow across the
	// shard boundary, so the profile's cross-shard counters must be
	// non-zero below.
	sp := pdesSpec("", 4, 2, 24, 256, partition{name: "round-robin"})
	seq, err := runLeg(nil, sp, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	shd, err := runLeg(nil, sp, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if seq.table != shd.table {
		t.Errorf("pdes tables differ:\nseq:\n%s\nshd:\n%s", seq.table, shd.table)
	}
	if string(seq.metrics) != string(shd.metrics) {
		t.Error("pdes metrics snapshots differ between sequential and sharded")
	}
	if seq.table == "" {
		t.Fatal("empty flow table")
	}
	if seq.profile != nil {
		t.Error("unprofiled sequential run produced a profile")
	}
	if shd.profile == nil {
		t.Fatal("profiled sharded run produced no profile")
	}
	// The CI smoke job holds the full-size run to 0.95; the threshold is
	// relaxed here because this reduced workload's wall clock is tiny and
	// scheduler preemption noise weighs proportionally more.
	if err := shd.profile.Check(0.90); err != nil {
		t.Errorf("profile consistency: %v\n%s", err, shd.profile.JSON())
	}
	if shd.profile.CrossShardFrames == 0 {
		t.Error("sharded flows crossed no shard boundary according to the profile")
	}
	if shd.profile.KernelDispatches == 0 {
		t.Error("kernel dispatch sampling counter stayed zero")
	}
	if shd.profile.VirtualNS <= 0 {
		t.Error("profile carries no virtual-time span")
	}
	if shd.events == 0 || shd.windows == 0 {
		t.Errorf("sharded run recorded events=%d windows=%d", shd.events, shd.windows)
	}
}

// TestPdesAffinity runs the same workload with flow-affinity partitioning:
// both endpoints of every flow land on one shard, so no simulated frame
// may cross the coupling, and the output must still be byte-identical to
// the sequential run.
func TestPdesAffinity(t *testing.T) {
	sp := pdesSpec("", 4, 2, 24, 256, flowAffinity)
	seq, err := runLeg(nil, sp, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	shd, err := runLeg(nil, sp, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if seq.table != shd.table {
		t.Errorf("pdes tables differ under affinity:\nseq:\n%s\nshd:\n%s", seq.table, shd.table)
	}
	if string(seq.metrics) != string(shd.metrics) {
		t.Error("pdes metrics snapshots differ between sequential and affinity-sharded")
	}
	if shd.profile == nil {
		t.Fatal("profiled sharded run produced no profile")
	}
	if shd.profile.CrossShardFrames != 0 {
		t.Errorf("flow-affinity partitioning still crossed shards: %d frames", shd.profile.CrossShardFrames)
	}
	if shd.windows >= seq.events {
		t.Errorf("affinity run used %d windows for %d events: coalescing is not batching", shd.windows, seq.events)
	}
}

// TestPdesOversubscribedHonorsGOMAXPROCS pins the one usable-cores rule:
// with GOMAXPROCS=1, two shards cannot run in parallel on any host, so
// the report, its variants and the CLI warning must all say so, however
// many CPUs the host has.
func TestPdesOversubscribedHonorsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := sim.UsableCores(); got != 1 {
		t.Fatalf("UsableCores() = %d under GOMAXPROCS=1, want 1", got)
	}
	r, err := Pdes(nil, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Shards != 2 || !r.Oversubscribed {
		t.Errorf("2 shards at GOMAXPROCS=1: shards=%d oversubscribed=%v, want 2 and true",
			r.Shards, r.Oversubscribed)
	}
	for _, v := range r.Variants {
		if !v.Oversubscribed {
			t.Errorf("variant %s (%d shards) not stamped oversubscribed at GOMAXPROCS=1", v.Name, v.Shards)
		}
	}
	if out := r.Format(); !strings.Contains(out, "WARNING: 2 shards on 1 usable core(s)") {
		t.Errorf("Format lacks the oversubscription warning:\n%s", out)
	}
}

// TestShardedPoints pins what a harness or scheduler change may never
// move: every sharded point's window and cross-shard frame counts, read
// from the tree when the cross-cut leg was added, and the pdes main
// point's per-flow completion times (as in the committed
// BENCH_pdes.json). Each point's sharded output must also match its
// sequential leg.
func TestShardedPoints(t *testing.T) {
	pdes, err := Pdes(nil, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if pdes.Windows != 36 || pdes.Flows != 4 || strings.Count(pdes.Table, " 35130.2 ") != 4 {
		t.Errorf("pdes main point: %d windows, %d flows, want 36 and 4 flows done at 35130.2 us:\n%s",
			pdes.Windows, pdes.Flows, pdes.Table)
	}
	scale, err := Scale(nil, 4096)
	if err != nil {
		t.Fatal(err)
	}
	type pin struct{ seqWindows, windows, crossShard uint64 }
	want := map[string]pin{
		"":                {36, 36, 0},
		"large_8shard":    {18, 18, 0},
		"crosscut_2shard": {11, 1106, 768},
		"leafspine_64":    {17, 1552, 960},
		"leafspine_4096":  {4, 4, 0},
	}
	points := append([]ShardedPoint{pdes.ShardedPoint}, pdes.Variants...)
	points = append(points, scale.Points...)
	if len(points) != len(want) {
		t.Errorf("%d points, want %d", len(points), len(want))
	}
	for _, p := range points {
		if got := (pin{p.SequentialWindows, p.Windows, p.CrossShardFrames}); got != want[p.Name] {
			t.Errorf("point %q: (sequential windows, windows, cross-shard frames) = %v, want %v", p.Name, got, want[p.Name])
		}
		if !p.Identical || !p.MetricsCompared {
			t.Errorf("point %q: identical_output=%v metrics_compared=%v, want both true", p.Name, p.Identical, p.MetricsCompared)
		}
	}
}
