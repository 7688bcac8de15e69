package mem

import (
	"math/rand"
	"testing"

	"hybridvc/internal/addr"
)

func TestAllocatorBasic(t *testing.T) {
	a := NewAllocator(16 * addr.PageSize)
	if a.TotalFrames() != 16 || a.FreeFrames() != 16 {
		t.Fatalf("frames: total=%d free=%d", a.TotalFrames(), a.FreeFrames())
	}
	pa, ok := a.AllocContiguous(4)
	if !ok || pa != 0 {
		t.Fatalf("first alloc: pa=%#x ok=%v", uint64(pa), ok)
	}
	if a.FreeFrames() != 12 || a.AllocatedFrames() != 4 {
		t.Errorf("after alloc: free=%d allocated=%d", a.FreeFrames(), a.AllocatedFrames())
	}
	pa2, ok := a.AllocContiguous(12)
	if !ok || pa2 != addr.FrameToPA(4) {
		t.Fatalf("second alloc: pa=%#x ok=%v", uint64(pa2), ok)
	}
	if _, ok := a.AllocFrame(); ok {
		t.Error("allocation succeeded with no free frames")
	}
	a.Free(pa, 4)
	if a.FreeFrames() != 4 {
		t.Errorf("after free: free=%d", a.FreeFrames())
	}
	if pa3, ok := a.AllocContiguous(4); !ok || pa3 != pa {
		t.Errorf("realloc of freed extent: pa=%#x ok=%v", uint64(pa3), ok)
	}
}

func TestAllocatorContiguity(t *testing.T) {
	// Contiguous allocations must be physically contiguous — this is the
	// property segment translation depends on.
	a := NewAllocator(1024 * addr.PageSize)
	pa, ok := a.AllocContiguous(100)
	if !ok {
		t.Fatal("allocation failed")
	}
	for i := uint64(0); i < 100; i++ {
		want := addr.PA(uint64(pa) + i*addr.PageSize)
		if want.Frame() != pa.Frame()+i {
			t.Fatalf("frame %d not contiguous", i)
		}
	}
}

func TestAllocatorCoalescing(t *testing.T) {
	a := NewAllocator(8 * addr.PageSize)
	p0, _ := a.AllocContiguous(2)
	p1, _ := a.AllocContiguous(2)
	p2, _ := a.AllocContiguous(2)
	p3, _ := a.AllocContiguous(2)
	a.Free(p0, 2)
	a.Free(p2, 2)
	if a.NumFreeExtents() != 2 {
		t.Errorf("free extents = %d, want 2", a.NumFreeExtents())
	}
	if a.LargestFreeExtent() != 2 {
		t.Errorf("largest = %d, want 2", a.LargestFreeExtent())
	}
	// Freeing p1 must merge p0,p1,p2 into one 6-frame extent.
	a.Free(p1, 2)
	if a.NumFreeExtents() != 1 || a.LargestFreeExtent() != 6 {
		t.Errorf("after middle free: extents=%d largest=%d",
			a.NumFreeExtents(), a.LargestFreeExtent())
	}
	a.Free(p3, 2)
	if a.NumFreeExtents() != 1 || a.LargestFreeExtent() != 8 {
		t.Errorf("after all free: extents=%d largest=%d",
			a.NumFreeExtents(), a.LargestFreeExtent())
	}
	// Full reallocation must succeed.
	if _, ok := a.AllocContiguous(8); !ok {
		t.Error("full-size alloc failed after coalescing")
	}
}

func TestAllocatorFragmentationBlocksLargeAlloc(t *testing.T) {
	a := NewAllocator(8 * addr.PageSize)
	var singles []addr.PA
	for i := 0; i < 8; i++ {
		p, ok := a.AllocFrame()
		if !ok {
			t.Fatal("single alloc failed")
		}
		singles = append(singles, p)
	}
	// Free every other frame: 4 frames free but max contiguous run is 1.
	for i := 0; i < 8; i += 2 {
		a.Free(singles[i], 1)
	}
	if a.FreeFrames() != 4 {
		t.Fatalf("free = %d", a.FreeFrames())
	}
	if _, ok := a.AllocContiguous(2); ok {
		t.Error("contiguous alloc succeeded despite fragmentation")
	}
	if _, ok := a.AllocFrame(); !ok {
		t.Error("single alloc failed with free frames available")
	}
}

func TestAllocatorDoubleFreePanics(t *testing.T) {
	a := NewAllocator(8 * addr.PageSize)
	p, _ := a.AllocContiguous(2)
	a.Free(p, 2)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	a.Free(p, 2)
}

func TestAllocatorZeroAlloc(t *testing.T) {
	a := NewAllocator(8 * addr.PageSize)
	if _, ok := a.AllocContiguous(0); ok {
		t.Error("zero-frame allocation succeeded")
	}
}

func TestAllocatorRandomizedInvariant(t *testing.T) {
	// Random alloc/free sequences must conserve frames and never hand out
	// overlapping extents.
	rng := rand.New(rand.NewSource(42))
	a := NewAllocator(256 * addr.PageSize)
	type alloc struct {
		pa addr.PA
		n  uint64
	}
	var live []alloc
	owner := make(map[uint64]int) // frame -> allocation index
	for step := 0; step < 2000; step++ {
		if len(live) == 0 || rng.Intn(2) == 0 {
			n := uint64(rng.Intn(16) + 1)
			pa, ok := a.AllocContiguous(n)
			if !ok {
				continue
			}
			for f := pa.Frame(); f < pa.Frame()+n; f++ {
				if _, taken := owner[f]; taken {
					t.Fatalf("frame %d double-allocated", f)
				}
				owner[f] = len(live)
			}
			live = append(live, alloc{pa, n})
		} else {
			i := rng.Intn(len(live))
			al := live[i]
			a.Free(al.pa, al.n)
			for f := al.pa.Frame(); f < al.pa.Frame()+al.n; f++ {
				delete(owner, f)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if a.AllocatedFrames() != uint64(len(owner)) {
			t.Fatalf("allocated count %d != tracked %d",
				a.AllocatedFrames(), len(owner))
		}
	}
}

func TestNewAllocatorPanics(t *testing.T) {
	for _, size := range []uint64{0, addr.PageSize - 1, addr.PageSize + 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAllocator(%d) did not panic", size)
				}
			}()
			NewAllocator(size)
		}()
	}
}

func TestDRAMRowBuffer(t *testing.T) {
	d := NewDRAM(DRAMConfig{Banks: 2, RowBytes: 1024, RowHitCycles: 50, RowMissCycles: 150})
	if lat := d.Access(0); lat != 150 {
		t.Errorf("cold access = %d, want 150", lat)
	}
	if lat := d.Access(64); lat != 50 {
		t.Errorf("same-row access = %d, want 50", lat)
	}
	// Row 1 maps to bank 1; row 0 stays open in bank 0.
	if lat := d.Access(1024); lat != 150 {
		t.Errorf("new row = %d, want 150", lat)
	}
	if lat := d.Access(128); lat != 50 {
		t.Errorf("bank 0 row still open = %d, want 50", lat)
	}
	// Row 2 maps back to bank 0 and closes row 0.
	if lat := d.Access(2048); lat != 150 {
		t.Errorf("conflicting row = %d, want 150", lat)
	}
	if lat := d.Access(0); lat != 150 {
		t.Errorf("evicted row reopened = %d, want 150", lat)
	}
	if d.Accesses != 6 || d.RowHits != 2 {
		t.Errorf("accesses=%d hits=%d", d.Accesses, d.RowHits)
	}
	if got, want := d.RowHitRate(), 2.0/6.0; got != want {
		t.Errorf("row hit rate = %f, want %f", got, want)
	}
}

func TestDRAMSequentialLocality(t *testing.T) {
	// Streaming accesses must enjoy a high row hit rate; random accesses a
	// low one. This is the property that separates stream from gups.
	d := NewDRAM(DefaultDRAMConfig())
	for i := uint64(0); i < 10000; i++ {
		d.Access(addr.PA(i * 64))
	}
	if d.RowHitRate() < 0.9 {
		t.Errorf("sequential row hit rate = %f, want >= 0.9", d.RowHitRate())
	}

	d2 := NewDRAM(DefaultDRAMConfig())
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		d2.Access(addr.PA(rng.Uint64() % (1 << 32)).LineAligned())
	}
	if d2.RowHitRate() > 0.2 {
		t.Errorf("random row hit rate = %f, want <= 0.2", d2.RowHitRate())
	}
}

func TestNewDRAMPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid DRAM config did not panic")
		}
	}()
	NewDRAM(DRAMConfig{Banks: 0, RowBytes: 1024})
}
