package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"
	"runtime"
	"runtime/pprof"
	"time"

	"nectar"
	"nectar/internal/obs"
	"nectar/internal/sim"
)

// maxVirtual bounds one drive loop in virtual time: a unit that has not
// finished by then has hung, and fails instead of spinning forever.
const maxVirtual = 120 * sim.Second

// unitStats is what one unit measured. Unit processes send it to the
// parent run as JSON.
type unitStats struct {
	Idx int    `json:"idx"`
	Err string `json:"err,omitempty"`
	// Results hashes the unit's virtual-time results; Digest hashes them
	// with the metrics snapshot, in the executions that take one.
	Results string `json:"results"`
	Digest  string `json:"digest,omitempty"`

	SetupNS    int64  `json:"setup_ns"`
	RunNS      int64  `json:"run_ns"`
	SnapNS     int64  `json:"snapshot_ns"`
	SetupBytes uint64 `json:"setup_bytes"`
	RunMallocs uint64 `json:"run_mallocs"`
	RunBytes   uint64 `json:"run_bytes"`

	// Filled in by the workload's check: application messages delivered,
	// the payload bytes they carried, and the bytes that went through a
	// software checksum (TCP with checksums on, UDP) on either end.
	Msgs         int `json:"msgs"`
	PayloadBytes int `json:"payload_bytes"`
	Checksummed  int `json:"checksummed_bytes"`

	Counts counts `json:"counts"`

	setups     []int64 // every execution's set-up time, merged by the parent run
	firstRunNS int64   // the first pass's run time, as a traced run's single pass measures it
}

// counts are the per-layer work counters of one unit, read from the
// cluster after its run.
type counts struct {
	Events       uint64 `json:"events"`
	Ctxsw        uint64 `json:"ctxsw"`
	Interrupts   uint64 `json:"interrupts"`
	MailboxOps   uint64 `json:"mailbox_ops"`
	Doorbells    uint64 `json:"doorbells"`
	PIOWords     uint64 `json:"pio_words"`
	DMABytes     uint64 `json:"dma_bytes"`
	Frames       uint64 `json:"frames"`
	FiberBytes   uint64 `json:"fiber_bytes"`
	TCPRetrans   uint64 `json:"tcp_retransmits"`
	RMPRetrans   uint64 `json:"rmp_retransmits"`
	Windows      uint64 `json:"windows"`
	CrossShard   uint64 `json:"cross_shard_frames"`
	Metrics      uint64 `json:"metrics"`
	Materialized uint64 `json:"materialized"`
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.Ctxsw += o.Ctxsw
	c.Interrupts += o.Interrupts
	c.MailboxOps += o.MailboxOps
	c.Doorbells += o.Doorbells
	c.PIOWords += o.PIOWords
	c.DMABytes += o.DMABytes
	c.Frames += o.Frames
	c.FiberBytes += o.FiberBytes
	c.TCPRetrans += o.TCPRetrans
	c.RMPRetrans += o.RMPRetrans
	c.Windows += o.Windows
	c.CrossShard += o.CrossShard
	c.Metrics += o.Metrics
	c.Materialized += o.Materialized
}

// unit is one closed-loop piece of work of a workload: build a fresh
// cluster, drive its traffic to completion, export and check its results.
// The workload code calls setup, run and check around its calls into the
// simulator; each call is timed from outside, with the heap allocations
// it made, and (when tracing) labelled and recorded as a span.
type unit struct {
	unitStats
	rng      *rand.Rand
	tr       *tracer   // nil when tracing is off
	snapshot bool      // check exports the metrics snapshot
	results  hash.Hash // virtual-time results, then the metrics snapshot
	err      error
}

func newUnit(seed uint64, w *workload, idx int, snapshot bool, tr *tracer) *unit {
	return &unit{
		unitStats: unitStats{Idx: idx},
		rng:       unitRNG(seed, w.name, idx),
		tr:        tr,
		snapshot:  snapshot,
		results:   sha256.New(),
	}
}

// unitRNG derives unit idx's input stream from (seed, workload, idx) alone,
// so a unit's inputs do not depend on which units ran before it.
func unitRNG(seed uint64, workload string, idx int) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h^uint64(idx)*0x9E3779B97F4A7C15))
}

// failf records the unit's first failure; later steps are skipped.
func (u *unit) failf(format string, args ...any) {
	if u.err == nil {
		u.err = fmt.Errorf(format, args...)
	}
}

// record adds a virtual-time result to the unit's digest.
func (u *unit) record(format string, args ...any) {
	fmt.Fprintf(u.results, format+"\n", args...)
}

// span runs fn as one timed phase of the unit and returns its wall time
// and the heap allocations it made.
func (u *unit) span(phase string, fn func()) (ns int64, mallocs, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if u.tr != nil {
		pprof.Do(context.Background(), pprof.Labels("workload", u.tr.workload, "phase", phase),
			func(context.Context) { fn() })
	} else {
		fn()
	}
	end := time.Now()
	runtime.ReadMemStats(&m1)
	if u.tr != nil {
		u.tr.span(u.Idx, phase, start, end)
	}
	return end.Sub(start).Nanoseconds(), m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// setup times cluster construction and wiring: NewCluster, AddNode/Node,
// mailboxes, listeners and thread forks.
func (u *unit) setup(fn func()) {
	if u.err != nil {
		return
	}
	ns, _, bytes := u.span("setup", fn)
	u.SetupNS += ns
	u.SetupBytes += bytes
}

// run drives the cluster until done reports true, in 1 ms steps of
// virtual time: the Cluster.RunFor loop every example uses.
func (u *unit) run(cl *nectar.Cluster, done func() bool) {
	if u.err != nil {
		return
	}
	ns, mallocs, bytes := u.span("run", func() {
		start := cl.Now()
		for !done() {
			if err := cl.RunFor(sim.Millisecond); err != nil {
				u.failf("run: %v", err)
				return
			}
			if sim.Duration(cl.Now()-start) > maxVirtual {
				u.failf("run: not done after %v of virtual time", maxVirtual)
				return
			}
		}
	})
	u.RunNS += ns
	u.RunMallocs += mallocs
	u.RunBytes += bytes
}

// check seals the digest of the workload's virtual-time results and, when
// the unit takes a snapshot, exports the cluster's metrics, reads the
// layer counters and seals the digest over the results and the snapshot
// JSON. verify checks the workload's delivery invariants and fills in
// Msgs, PayloadBytes and Checksummed.
func (u *unit) check(cl *nectar.Cluster, verify func()) {
	if u.err != nil {
		return
	}
	u.span("check", func() {
		verify()
		u.record("virtual-end %d", cl.Now().Nanos())
		u.Results = hex.EncodeToString(u.results.Sum(nil))[:16]
		if !u.snapshot {
			return
		}
		start := time.Now()
		snap := cl.MetricsSnapshot()
		js := snap.JSON()
		u.SnapNS = time.Since(start).Nanoseconds()
		u.results.Write(js)
		u.Digest = hex.EncodeToString(u.results.Sum(nil))[:16]
		u.Counts = readCounts(cl, snap)
	})
}

// readCounts reads one unit's per-layer work counters.
func readCounts(cl *nectar.Cluster, snap *obs.Snapshot) counts {
	var c counts
	for _, k := range cl.Kernels() {
		c.Events += k.Dispatched()
	}
	c.Ctxsw = snap.Sum(obs.LayerSched, "context_switches")
	c.Interrupts = snap.Sum(obs.LayerSched, "interrupts")
	c.MailboxOps = snap.Sum(obs.LayerMailbox, "puts") + snap.Sum(obs.LayerMailbox, "gets")
	c.Doorbells = snap.Sum(obs.LayerHostIF, "doorbells")
	c.PIOWords = snap.Sum(obs.LayerVME, "pio_words")
	c.DMABytes = snap.Sum(obs.LayerVME, "dma_bytes")
	c.Frames = snap.Sum(obs.LayerFiber, "frames")
	c.FiberBytes = snap.Sum(obs.LayerFiber, "bytes")
	c.TCPRetrans = snap.Sum(obs.LayerTCP, "retransmits")
	c.RMPRetrans = snap.Sum(obs.LayerRMP, "retransmits")
	c.Windows = cl.Windows()
	c.CrossShard = cl.CrossShardFrames()
	c.Metrics = uint64(len(snap.Entries))
	c.Materialized = uint64(cl.MaterializedNodes())
	return c
}
