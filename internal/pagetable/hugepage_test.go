package pagetable

import (
	"testing"

	"hybridvc/internal/addr"
	"hybridvc/internal/mem"
)

func TestMapHugeLookupTranslate(t *testing.T) {
	tbl := newTables(t)
	va := addr.VA(0x4000_0000) // 2 MiB aligned
	pa := addr.PA(0x80_0000)
	if err := tbl.MapHuge(va, pa, addr.PermRW, false); err != nil {
		t.Fatal(err)
	}
	pte, ok := tbl.Lookup(va)
	if !ok || !pte.Huge || pte.Frame != pa.Frame() {
		t.Fatalf("lookup = %+v ok=%v", pte, ok)
	}
	// Every 4 KiB page of the 2 MiB region resolves through the one entry.
	for off := uint64(0); off < addr.HugePageSize; off += addr.PageSize {
		got, ok := tbl.Translate(va + addr.VA(off) + 0x123)
		if !ok || got != pa+addr.PA(off)+0x123 {
			t.Fatalf("translate +%#x = %#x ok=%v", off, uint64(got), ok)
		}
	}
	// Outside the huge page: unmapped.
	if _, ok := tbl.Lookup(va + addr.HugePageSize); ok {
		t.Error("adjacent huge region mapped")
	}
	if tbl.Mapped != 1 {
		t.Errorf("mapped = %d", tbl.Mapped)
	}
}

func TestMapHugeWalkIsShorter(t *testing.T) {
	tbl := newTables(t)
	tbl.MapHuge(0x4000_0000, 0x80_0000, addr.PermRW, false)
	tbl.Map(0x5000_0000, 0x10_0000, addr.PermRW, false)
	_, n, pte, ok := tbl.WalkPath(0x4000_0000 + 0x1234)
	if !ok || !pte.Huge {
		t.Fatalf("huge walk: %+v ok=%v", pte, ok)
	}
	if n != Levels-1 {
		t.Errorf("huge walk length = %d, want %d", n, Levels-1)
	}
	_, n4k, _, _ := tbl.WalkPath(0x5000_0000)
	if n4k != Levels {
		t.Errorf("4K walk length = %d", n4k)
	}
}

func TestMapHugeAlignmentErrors(t *testing.T) {
	tbl := newTables(t)
	if err := tbl.MapHuge(0x1000, 0x80_0000, addr.PermRW, false); err == nil {
		t.Error("unaligned VA accepted")
	}
	if err := tbl.MapHuge(0x4000_0000, 0x1000, addr.PermRW, false); err == nil {
		t.Error("unaligned PA accepted")
	}
	if err := tbl.MapHuge(addr.VA(1)<<52, 0, addr.PermRW, false); err == nil {
		t.Error("non-canonical VA accepted")
	}
}

func TestMixingHugeAnd4KRejected(t *testing.T) {
	tbl := newTables(t)
	tbl.MapHuge(0x4000_0000, 0x80_0000, addr.PermRW, false)
	if err := tbl.Map(0x4000_1000, 0x1000, addr.PermRW, false); err == nil {
		t.Error("4K map inside huge mapping accepted")
	}
	tbl.Map(0x5000_0000, 0x1000, addr.PermRW, false)
	if err := tbl.MapHuge(0x5000_0000, 0x80_0000, addr.PermRW, false); err == nil {
		t.Error("huge map over 4K mappings accepted")
	}
	// Re-mapping a huge page in place is fine.
	if err := tbl.MapHuge(0x4000_0000, 0xc0_0000, addr.PermRW, false); err != nil {
		t.Errorf("huge remap rejected: %v", err)
	}
}

func TestHugeUnmapAndFlags(t *testing.T) {
	tbl := newTables(t)
	tbl.MapHuge(0x4000_0000, 0x80_0000, addr.PermRW, true)
	pte, _ := tbl.Lookup(0x4000_0000)
	if !pte.Shared {
		t.Error("shared bit lost on huge mapping")
	}
	if !tbl.SetPerm(0x4000_0000, addr.PermRO) {
		t.Fatal("SetPerm on huge failed")
	}
	if !tbl.SetShared(0x4000_0000, false) {
		t.Fatal("SetShared on huge failed")
	}
	pte, _ = tbl.Lookup(0x4000_0000)
	if pte.Perm != addr.PermRO || pte.Shared || !pte.Huge {
		t.Errorf("after updates: %+v", pte)
	}
	if !tbl.Unmap(0x4000_0123) {
		t.Fatal("huge unmap failed")
	}
	if _, ok := tbl.Lookup(0x4000_0000); ok {
		t.Error("huge mapping survived unmap")
	}
}

func TestHugePTEEncodeRoundTrip(t *testing.T) {
	p := PTE{Present: true, Frame: 0x800, Perm: addr.PermRW, Huge: true}
	if got := DecodePTE(p.Encode()); got != p {
		t.Errorf("round trip: %+v", got)
	}
}

func TestHugeOutOfMemory(t *testing.T) {
	alloc := mem.NewAllocator(2 * addr.PageSize)
	tbl, err := New(alloc)
	if err != nil {
		t.Fatal(err)
	}
	alloc.AllocFrame() // exhaust
	if err := tbl.MapHuge(0x4000_0000, 0x80_0000, addr.PermRW, false); err == nil {
		t.Error("huge map succeeded without table memory")
	}
}
