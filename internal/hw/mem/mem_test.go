package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegionSliceAliasing(t *testing.T) {
	r := NewRegion("data", 4*PageSize)
	a := r.Slice(100, 16)
	b := r.Slice(100, 16)
	a[0] = 0xAB
	if b[0] != 0xAB {
		t.Error("slices of the same address do not alias")
	}
}

func TestRegionSliceBusError(t *testing.T) {
	r := NewRegion("data", PageSize)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Slice did not panic")
		}
	}()
	r.Slice(Addr(PageSize-8), 16)
}

func TestHeapAllocFree(t *testing.T) {
	r := NewRegion("data", 8*PageSize)
	h := NewHeap(r, 0, r.Size())
	buf, addr, ok := h.Alloc(100)
	if !ok {
		t.Fatal("alloc failed")
	}
	if len(buf) < 100 {
		t.Errorf("buffer len %d < 100", len(buf))
	}
	if h.Used() == 0 {
		t.Error("Used() == 0 after alloc")
	}
	h.Free(addr)
	if h.Used() != 0 {
		t.Errorf("Used() = %d after free", h.Used())
	}
	if len(h.free) != 1 {
		t.Errorf("free spans = %d, want 1 (coalesced)", len(h.free))
	}
}

func TestHeapExhaustion(t *testing.T) {
	r := NewRegion("data", PageSize)
	h := NewHeap(r, 0, r.Size())
	_, _, ok := h.Alloc(PageSize + 1)
	if ok {
		t.Error("oversized alloc succeeded")
	}
	// Fill completely, then one more should fail.
	_, a1, ok := h.Alloc(PageSize / 2)
	if !ok {
		t.Fatal("first half alloc failed")
	}
	_, _, ok = h.Alloc(PageSize / 2)
	if !ok {
		t.Fatal("second half alloc failed")
	}
	if _, _, ok := h.Alloc(8); ok {
		t.Error("alloc from a full heap succeeded")
	}
	h.Free(a1)
	if _, _, ok := h.Alloc(PageSize / 2); !ok {
		t.Error("alloc after free failed")
	}
}

func TestHeapCoalescing(t *testing.T) {
	r := NewRegion("data", 4*PageSize)
	h := NewHeap(r, 0, r.Size())
	var addrs []Addr
	for i := 0; i < 8; i++ {
		_, a, ok := h.Alloc(256)
		if !ok {
			t.Fatal("alloc failed")
		}
		addrs = append(addrs, a)
	}
	// Free in an interleaved order; the heap must end fully coalesced.
	for _, i := range []int{1, 3, 5, 7, 0, 2, 4, 6} {
		h.Free(addrs[i])
	}
	if len(h.free) != 1 {
		t.Errorf("free spans = %d, want 1 after freeing everything", len(h.free))
	}
	if len(h.free) != 1 || h.free[0].size != r.Size() {
		t.Errorf("free spans = %+v, want one of %d bytes", h.free, r.Size())
	}
}

func TestHeapDoubleFreePanics(t *testing.T) {
	r := NewRegion("data", PageSize)
	h := NewHeap(r, 0, r.Size())
	_, a, _ := h.Alloc(64)
	h.Free(a)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	h.Free(a)
}

func TestHeapDistinctBuffers(t *testing.T) {
	r := NewRegion("data", 4*PageSize)
	h := NewHeap(r, 0, r.Size())
	b1, _, _ := h.Alloc(64)
	b2, _, _ := h.Alloc(64)
	for i := range b1 {
		b1[i] = 0x11
	}
	for _, v := range b2 {
		if v == 0x11 {
			t.Fatal("allocations overlap")
		}
	}
}

// Property: under arbitrary alloc/free sequences the heap invariants hold
// and no two live allocations overlap.
func TestHeapInvariantsProperty(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegion("data", 16*PageSize)
		h := NewHeap(r, 0, r.Size())
		type alloc struct {
			addr Addr
			size int
		}
		var live []alloc
		for _, op := range opsRaw {
			if op%3 != 0 && len(live) > 0 { // free
				i := rng.Intn(len(live))
				h.Free(live[i].addr)
				live = append(live[:i], live[i+1:]...)
			} else { // alloc
				n := 1 + rng.Intn(2048)
				_, a, ok := h.Alloc(n)
				if ok {
					live = append(live, alloc{a, n})
				}
			}
			if err := h.CheckInvariants(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
			// No two live allocations overlap.
			for i := range live {
				for j := i + 1; j < len(live); j++ {
					a, b := live[i], live[j]
					if a.addr < b.addr+Addr(b.size) && b.addr < a.addr+Addr(a.size) {
						t.Logf("overlap: %+v %+v", a, b)
						return false
					}
				}
			}
		}
		// Free everything: heap must return to one span.
		for _, a := range live {
			h.Free(a.addr)
		}
		return len(h.free) == 1 && h.Used() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
