// Package exec defines the execution context shared by the runtime-system
// layers (mailboxes, syncs, host interface). The same operations can be
// invoked by CAB threads and by host processes (paper §3.5: Nectarine
// presents "the same interface on both the CAB and host"); a Context says
// which side is executing so each operation can charge the right costs —
// plain CPU time on the CAB, or CPU time plus VME programmed-I/O when a
// host process manipulates shared data structures in CAB memory.
package exec

import (
	"nectar/internal/hw/host"
	"nectar/internal/model"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// Context is the identity of the code invoking a runtime operation.
type Context struct {
	T    *threads.Thread
	Host *host.Host // nil when executing on the CAB itself
}

// OnCAB returns a context for CAB-resident code.
func OnCAB(t *threads.Thread) Context { return Context{T: t} }

// OnHost returns a context for a host process accessing its CAB.
func OnHost(t *threads.Thread, h *host.Host) Context { return Context{T: t, Host: h} }

// IsHost reports whether the context is a host process.
func (c Context) IsHost() bool { return c.Host != nil }

// Cost returns the cost model for the executing CPU.
func (c Context) Cost() *model.CostModel { return c.T.Sched().Cost() }

// Now returns the current virtual time.
//
//nectar:api cmd/nectar-perf calls it; that module is the benchmark's and builds against this tree
func (c Context) Now() sim.Time { return c.T.Now() }

// Compute charges d of CPU time to the executing thread.
func (c Context) Compute(d sim.Duration) { c.T.Compute(d) }

// Words charges access to n shared 32-bit words in CAB memory: a VME PIO
// access per word from a host process, negligible (35 ns SRAM) from the
// CAB itself.
//
//nectar:free-hop the per-word VME cost is charged inside Bus.PIO; Words only routes host-context accesses to the bus
func (c Context) Words(n int) {
	if c.Host != nil {
		c.Host.Bus.PIO(c.T, n)
	}
}

// CopyIn moves len(src) bytes of message data from the caller's memory
// into a CAB buffer: per-word PIO from a host, a CPU copy on the CAB.
func (c Context) CopyIn(dst, src []byte) {
	if c.Host != nil {
		c.Host.WriteCAB(c.T, dst, src)
		return
	}
	c.T.Compute(c.Cost().MemCopyTime(len(src)))
	copy(dst, src)
}

// CopyOut moves len(src) bytes of message data from a CAB buffer to the
// caller's memory.
func (c Context) CopyOut(dst, src []byte) {
	if c.Host != nil {
		c.Host.ReadCAB(c.T, src, dst)
		return
	}
	c.T.Compute(c.Cost().MemCopyTime(len(src)))
	copy(dst, src)
}
