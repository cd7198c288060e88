package nectar

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"nectar/internal/fabric"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// TestDeadlockReportGolden pins the whole deadlock report of a one-node
// cluster whose only application thread waits forever on an empty
// mailbox. The idle protocol servers are listed with it, each under the
// condition its loop waits on, sorted by name.
func TestDeadlockReportGolden(t *testing.T) {
	cl := NewCluster(&Config{})
	n := cl.AddNode()
	box := n.Mailboxes.Create("empty")
	n.CAB.Sched.Fork("waiter", threads.AppPriority, func(th *threads.Thread) {
		box.BeginGet(exec.OnCAB(th))
	})
	err := cl.Run()
	const want = "sim: deadlock at 245.000us: blocked procs: " +
		"cab1/datagram-send@cond:datagram.send.notEmpty, " +
		"cab1/nectarine-ctl@cond:nectarine.ctl.notEmpty, " +
		"cab1/rmp-send@cond:rmp.send.notEmpty, " +
		"cab1/rrp-send@cond:rrp.send.notEmpty, " +
		"cab1/tcp-input@cond:tcp.in.notEmpty, " +
		"cab1/tcp-send@cond:tcp.sendreq.notEmpty, " +
		"cab1/tcp-timer@cond:tcp.timer, " +
		"cab1/udp-input@cond:udp.in.notEmpty, " +
		"cab1/udp-send@cond:udp.sendreq.notEmpty, " +
		"cab1/waiter@cond:empty.notEmpty"
	if err == nil || err.Error() != want {
		t.Errorf("deadlock report:\n got %v\nwant %s", err, want)
	}
}

// TestIdleServersHoldNoCoroutine runs 1 ms of virtual time with no
// traffic on a freshly built cluster, which starts every protocol
// server. An idle server waits for work as a step and borrows a
// coroutine only to handle a message, so the run starts no goroutine;
// with a coroutine per server it started 9 per node (18 and 144) and
// allocated 294 and 2,313 objects. The allocation counts are pinned
// exactly: the waiter records and wait-queue slices of the idle
// servers, and the growth of the event queue. MemStats counts the whole
// process, so each figure is the least of three fresh clusters, which
// keeps an allocation by an unrelated goroutine out of it.
func TestIdleServersHoldNoCoroutine(t *testing.T) {
	for _, tc := range []struct {
		name          string
		cfg           func() *Config
		nodes         int
		maxGoroutines int
		allocs        uint64
	}{
		{"2-node", func() *Config { return &Config{} }, 2, 2, 60},
		{"FatTree(16)x16", func() *Config { return &Config{Topology: fabric.FatTree(16)} }, 16, 16, 441},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			goroutines, allocs := math.MaxInt, uint64(math.MaxUint64)
			for range 3 {
				cl := NewCluster(tc.cfg())
				for i := 0; i < tc.nodes; i++ {
					cl.AddNode()
				}
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				g0 := runtime.NumGoroutine()
				if err := cl.RunFor(sim.Millisecond); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&m1)
				goroutines = min(goroutines, runtime.NumGoroutine()-g0)
				allocs = min(allocs, m1.Mallocs-m0.Mallocs)
			}
			if goroutines > tc.maxGoroutines {
				t.Errorf("an idle RunFor(1ms) started %d goroutines, want at most %d", goroutines, tc.maxGoroutines)
			}
			if allocs != tc.allocs {
				t.Errorf("an idle RunFor(1ms) allocated %d objects, want %d", allocs, tc.allocs)
			}
		})
	}
}
