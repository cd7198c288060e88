// Package mem models the CAB's on-board memory (paper §2.2): the 1 MB
// data region of 35 ns static RAM and a first-fit heap allocator over it
// (used for mailbox message buffers, §3.3).
//
// Buffers are real Go byte slices aliasing one backing array, so all
// protocol code operates on genuine bytes at stable "physical" addresses —
// which is what lets the mailbox layer implement Enqueue and adjust
// operations as pure pointer surgery, exactly as the paper describes.
package mem

import (
	"fmt"
	"nectar/internal/sim"
	"sort"
)

// Default CAB memory geometry (paper §2.2).
const (
	DefaultDataSize = 1 << 20 // 1 Mbyte data RAM
	PageSize        = 1 << 10 // regions are sized in 1 Kbyte pages
)

// Addr is a CAB-physical address within a region.
type Addr uint32

// Region is a contiguous memory region.
type Region struct {
	name  string
	bytes []byte
}

// NewRegion allocates a region of the given size (rounded up to a page).
func NewRegion(name string, size int) *Region {
	size = (size + PageSize - 1) &^ (PageSize - 1)
	r := &Region{
		name:  name,
		bytes: make([]byte, size),
	}
	return r
}

// Size returns the region size in bytes.
func (r *Region) Size() int { return len(r.bytes) }

// Slice returns the byte window [addr, addr+n). It panics on out-of-range,
// which models a bus error. The returned slice keeps the region's backing
// capacity past its end, so callers must never append to it.
func (r *Region) Slice(addr Addr, n int) []byte {
	if int(addr)+n > len(r.bytes) {
		sim.Panicf("mem: bus error: [%d,%d) outside region %q (size %d)",
			addr, int(addr)+n, r.name, len(r.bytes))
	}
	return r.bytes[addr : int(addr)+n]
}

// Heap is a first-fit allocator with free-list coalescing over a Region,
// used for mailbox buffer space (paper §3.3: "buffer space for messages is
// allocated from a common heap ... shared among all mailboxes on the CAB").
type Heap struct {
	region *Region
	free   []span // sorted by addr, coalesced
	inUse  map[Addr]int
	used   int
	allocs uint64
}

type span struct {
	addr Addr
	size int
}

// Alignment of all heap allocations (SPARC word).
const heapAlign = 8

// NewHeap creates a heap managing [base, base+size) of r.
func NewHeap(r *Region, base Addr, size int) *Heap {
	if int(base)+size > len(r.bytes) {
		panic("mem: heap extends past region")
	}
	return &Heap{
		region: r,
		free:   []span{{base, size}},
		inUse:  make(map[Addr]int),
	}
}

// Alloc allocates n bytes, returning the buffer and its address. ok is
// false if no sufficient contiguous free span exists.
func (h *Heap) Alloc(n int) (buf []byte, addr Addr, ok bool) {
	if n <= 0 {
		n = heapAlign
	}
	n = (n + heapAlign - 1) &^ (heapAlign - 1)
	for i, s := range h.free {
		if s.size < n {
			continue
		}
		addr = s.addr
		if s.size == n {
			h.free = append(h.free[:i], h.free[i+1:]...)
		} else {
			h.free[i] = span{s.addr + Addr(n), s.size - n}
		}
		h.inUse[addr] = n
		h.used += n
		h.allocs++
		return h.region.Slice(addr, n), addr, true
	}
	return nil, 0, false
}

// Free releases the allocation at addr. Freeing an unallocated address
// panics (an allocator-corruption bug in runtime code).
func (h *Heap) Free(addr Addr) {
	n, ok := h.inUse[addr]
	if !ok {
		sim.Panicf("mem: free of unallocated addr %#x", addr)
	}
	delete(h.inUse, addr)
	h.used -= n
	// Insert sorted and coalesce with neighbors.
	i := sort.Search(len(h.free), func(i int) bool { return h.free[i].addr > addr })
	h.free = append(h.free, span{})
	copy(h.free[i+1:], h.free[i:])
	h.free[i] = span{addr, n}
	h.coalesce(i)
}

func (h *Heap) coalesce(i int) {
	// Merge with next.
	if i+1 < len(h.free) && h.free[i].addr+Addr(h.free[i].size) == h.free[i+1].addr {
		h.free[i].size += h.free[i+1].size
		h.free = append(h.free[:i+1], h.free[i+2:]...)
	}
	// Merge with previous.
	if i > 0 && h.free[i-1].addr+Addr(h.free[i-1].size) == h.free[i].addr {
		h.free[i-1].size += h.free[i].size
		h.free = append(h.free[:i], h.free[i+1:]...)
	}
}

// Used returns the number of allocated bytes.
func (h *Heap) Used() int { return h.used }

// Allocs returns the number of successful allocations.
//
//nectar:api the mailbox tests check which messages take heap space; the heap publishes no gauge
func (h *Heap) Allocs() uint64 { return h.allocs }

// CheckInvariants verifies allocator consistency: free spans sorted,
// non-overlapping, non-adjacent (fully coalesced), and disjoint from
// allocations. Used by property tests.
//
//nectar:api safety check the heap and mailbox property tests run after every operation
func (h *Heap) CheckInvariants() error {
	for i := 1; i < len(h.free); i++ {
		prev, cur := h.free[i-1], h.free[i]
		if prev.addr+Addr(prev.size) > cur.addr {
			return fmt.Errorf("free spans overlap: %+v, %+v", prev, cur)
		}
		if prev.addr+Addr(prev.size) == cur.addr {
			return fmt.Errorf("free spans not coalesced: %+v, %+v", prev, cur)
		}
	}
	for addr, n := range h.inUse {
		for _, s := range h.free {
			if addr < s.addr+Addr(s.size) && s.addr < addr+Addr(n) {
				return fmt.Errorf("allocation [%#x,+%d) overlaps free span %+v", addr, n, s)
			}
		}
	}
	return nil
}
