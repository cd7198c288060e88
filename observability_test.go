package nectar

import (
	"bytes"
	"strings"
	"testing"

	"nectar/internal/hw/fiber"
	"nectar/internal/obs"
	np "nectar/internal/proto/nectar"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// obsWorkload runs a fixed two-node exchange — datagrams plus an RMP
// send with one forced retransmission — with a trace recorder and a wire
// capture installed, and returns the rendered event stream, the metrics
// snapshot (live and as JSON), and the capture listing.
func obsWorkload(t *testing.T) (events string, snap *obs.Snapshot, snapJSON []byte, capture string) {
	t.Helper()
	cl, a, b := twoNodes(t, nil)

	o := obs.Ensure(cl.K)
	rec := &obs.Recorder{}
	o.SetSink(rec)
	tap := &obs.Capture{}
	o.SetCapture(tap)

	sink := b.Mailboxes.Create("det.sink")
	addr := wire.MailboxAddr{Node: b.ID, Box: sink.ID()}

	done := false
	b.Host.Run("rx", func(th *threads.Thread) {
		ctx := exec.OnHost(th, b.Host)
		for i := 0; i < 4; i++ { // 3 datagrams + 1 RMP message
			m := sink.BeginGet(ctx)
			sink.EndGet(ctx, m)
		}
	})
	a.Host.Run("tx", func(th *threads.Thread) {
		ctx := exec.OnHost(th, a.Host)
		for i := 0; i < 3; i++ {
			a.Transports.Datagram.Send(ctx, addr, 0, []byte{byte(i), 1, 2, 3}, nil)
		}
		a.CAB.OutLink().SetFaultFn(fiber.DropThenCorrupt(1, 0)) // force one RMP retransmission
		st := a.Syncs.Alloc(ctx)
		a.Transports.RMP.Send(ctx, addr, 0, []byte("reliable"), st)
		if got := st.Read(ctx); got != np.StatusOK {
			cl.K.Fatalf("rmp status %d", got)
		}
		done = true
	})
	for !done {
		if err := cl.RunFor(10 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if cl.Now() > sim.Time(30*sim.Second) {
			t.Fatal("workload did not complete")
		}
	}

	var sb strings.Builder
	for _, e := range rec.Events {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	snap = obs.MergeSnapshots(cl.Now(), o.Metrics())
	return sb.String(), snap, snap.JSON(), tap.Text()
}

// TestObservabilityDeterminism runs the same workload twice in fresh
// clusters and requires byte-identical trace streams, metric snapshots,
// and wire captures — the repo's reproducibility contract extended to
// the observability layer.
func TestObservabilityDeterminism(t *testing.T) {
	ev1, _, snap1, cap1 := obsWorkload(t)
	ev2, _, snap2, cap2 := obsWorkload(t)
	if ev1 == "" || len(snap1) == 0 || cap1 == "" {
		t.Fatal("workload produced no events, metrics, or capture")
	}
	if ev1 != ev2 {
		t.Errorf("trace streams differ between identical runs; first divergence:\nrun1: %s\nrun2: %s",
			firstDiffLine(ev1, ev2), firstDiffLine(ev2, ev1))
	}
	if !bytes.Equal(snap1, snap2) {
		t.Error("metric snapshots differ between identical runs")
	}
	if cap1 != cap2 {
		t.Errorf("wire captures differ between identical runs; first divergence:\nrun1: %s\nrun2: %s",
			firstDiffLine(cap1, cap2), firstDiffLine(cap2, cap1))
	}
}

// firstDiffLine returns the first line of a that differs from b, for a
// readable failure message.
func firstDiffLine(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			return la[i]
		}
	}
	return "(streams are a prefix of each other)"
}

// TestObservabilityCoverage checks that one workload populates every
// surface the observability layer promises: trace events from host
// interface through transports, the headline metric families, and
// decoded wire frames including the injected drop.
func TestObservabilityCoverage(t *testing.T) {
	events, snap, _, capture := obsWorkload(t)

	for _, marker := range []string{"hostif", "datalink", "datagram", "rmp", "rto"} {
		if !strings.Contains(events, marker) {
			t.Errorf("trace stream missing %q events", marker)
		}
	}
	for _, m := range []struct {
		layer obs.Layer
		name  string
	}{
		{obs.LayerFiber, "bytes"},
		{obs.LayerVME, "pio_words"},
		{obs.LayerSched, "context_switches"},
		{obs.LayerMailbox, "puts"},
		{obs.LayerRMP, "retransmits"},
	} {
		if snap.Sum(m.layer, m.name) == 0 {
			t.Errorf("metric %s/%s is zero after the workload", m.layer, m.name)
		}
	}
	if !strings.Contains(capture, "datagram box") {
		t.Error("capture has no decoded datagram frame")
	}
	if !strings.Contains(capture, "rmp box") {
		t.Error("capture has no decoded rmp frame")
	}
	if !strings.Contains(capture, "[DROPPED]") {
		t.Error("capture did not flag the injected drop")
	}
}
