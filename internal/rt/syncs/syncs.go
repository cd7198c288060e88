// Package syncs implements the CAB runtime's lightweight synchronization
// objects (paper §3.4): a sync carries a one-word value from a writer to a
// single asynchronous reader — cheaper than a mailbox when all that is
// needed is "a condition variable and a shared word for the value", e.g.
// returning a status from a transport protocol on the CAB to a sender on
// the host.
//
// Semantics (per the paper): Alloc allocates a sync; Write stores a value
// and marks it written; Read blocks until written, then frees the sync and
// returns the value; Cancel indicates the reader is no longer interested —
// it frees the sync if already written, otherwise it marks the sync
// canceled and a subsequent Write frees it.
//
// Syncs live in CAB memory. Host processes and CAB threads allocate from
// two separate pools so allocation needs no cross-bus locking (paper
// §3.4); writing requires a short critical section, done on the CAB by
// masking interrupts, and offloaded to the CAB by host writers through the
// CAB signaling mechanism.
package syncs

import (
	"fmt"

	"nectar/internal/model"
	"nectar/internal/pool"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/hostif"
	"nectar/internal/rt/threads"
)

// Pool manages the two per-side free lists of sync objects for one CAB.
type Pool struct {
	iface *hostif.IF
	cost  *model.CostModel

	cabFree  pool.FreeList[*Sync]
	hostFree pool.FreeList[*Sync]
	nalloc   uint64
}

// NewPool creates the sync pools for a CAB runtime.
func NewPool(iface *hostif.IF) *Pool {
	return &Pool{
		iface: iface,
		cost:  iface.CAB().Cost(),
	}
}

// Sync is a one-word, single-reader synchronization object.
type Sync struct {
	pool     *Pool
	fromHost bool // allocated from the host pool

	value    uint32
	written  bool
	canceled bool
	freed    bool

	cond     *threads.Cond    // CAB reader
	hostCond *hostif.HostCond // host reader (created lazily)
}

// Alloc allocates a sync from the caller's pool.
func (p *Pool) Alloc(ctx exec.Context) *Sync {
	ctx.Compute(p.cost.SyncOp)
	ctx.Words(2)
	list := &p.cabFree
	if ctx.IsHost() {
		list = &p.hostFree
	}
	if s, ok := list.Get(); ok {
		s.reset()
		return s
	}
	p.nalloc++
	s := &Sync{
		pool:     p,
		fromHost: ctx.IsHost(),
		cond:     threads.NewCond(fmt.Sprintf("sync%d", p.nalloc)),
	}
	return s
}

func (s *Sync) reset() {
	s.value = 0
	s.written = false
	s.canceled = false
	s.freed = false
}

func (s *Sync) free() {
	if s.freed {
		panic("syncs: double free")
	}
	s.freed = true
	if s.fromHost {
		s.pool.hostFree.Put(s)
	} else {
		s.pool.cabFree.Put(s)
	}
}

// Write stores v and marks the sync written, waking the reader if one is
// blocked. If the sync was canceled, Write frees it instead. A host
// writer offloads the critical section to the CAB via the signaling
// mechanism (paper §3.4).
func (s *Sync) Write(ctx exec.Context, v uint32) {
	if ctx.IsHost() {
		s.pool.iface.PostToCAB(ctx, "sync.Write", "", func(t *threads.Thread) {
			s.writeOnCAB(exec.OnCAB(t), v)
		})
		return
	}
	s.writeOnCAB(ctx, v)
}

func (s *Sync) writeOnCAB(ctx exec.Context, v uint32) {
	// The check-cancel-and-mark-written step must be atomic; on the CAB
	// this is done by masking interrupts (paper §3.4). Interrupt contexts
	// are already atomic.
	if !ctx.T.IsInterrupt() {
		ctx.T.DisableInterrupts()
		defer ctx.T.EnableInterrupts()
	}
	ctx.Compute(s.pool.cost.SyncOp)
	if s.canceled {
		s.free()
		return
	}
	if s.written {
		panic("syncs: double Write")
	}
	s.value = v
	s.written = true
	s.cond.Signal()
	if s.hostCond != nil {
		s.hostCond.Signal(ctx)
	}
}

// Read blocks until the sync is written, frees it, and returns the value.
// Only the single reader may call Read.
func (s *Sync) Read(ctx exec.Context) uint32 {
	ctx.Compute(s.pool.cost.SyncOp)
	ctx.Words(1)
	if ctx.IsHost() {
		if s.hostCond == nil {
			s.hostCond = s.pool.iface.NewHostCond("sync", "")
		}
		for !s.written {
			since := s.hostCond.Poll(ctx)
			if s.written { // re-check after the poll read
				break
			}
			s.hostCond.WaitPoll(ctx, since)
		}
	} else {
		for !s.written {
			s.cond.Wait(ctx.T)
		}
	}
	v := s.value
	s.free()
	return v
}

// Cancel tells the runtime the reader is no longer interested: the sync
// is freed now if written, or upon the eventual Write otherwise.
//
//nectar:api the paper's sync interface (§3.4), covered by this package's tests
func (s *Sync) Cancel(ctx exec.Context) {
	if ctx.IsHost() {
		s.pool.iface.PostToCAB(ctx, "sync.Cancel", "", func(t *threads.Thread) {
			s.cancelOnCAB(exec.OnCAB(t))
		})
		return
	}
	s.cancelOnCAB(ctx)
}

func (s *Sync) cancelOnCAB(ctx exec.Context) {
	if !ctx.T.IsInterrupt() {
		ctx.T.DisableInterrupts()
		defer ctx.T.EnableInterrupts()
	}
	ctx.Compute(s.pool.cost.SyncOp)
	if s.written {
		s.free()
		return
	}
	s.canceled = true
}
