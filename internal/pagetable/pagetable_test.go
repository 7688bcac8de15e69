package pagetable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hybridvc/internal/addr"
	"hybridvc/internal/mem"
)

func newTables(t *testing.T) *Tables {
	t.Helper()
	alloc := mem.NewAllocator(64 << 20)
	tbl, err := New(alloc)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestPTEEncodeDecodeRoundTrip(t *testing.T) {
	f := func(frame uint32, perm uint8, shared bool) bool {
		p := PTE{
			Present: true,
			Frame:   uint64(frame),
			Perm:    addr.Perm(perm & 3),
			Shared:  shared,
		}
		return DecodePTE(p.Encode()) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if DecodePTE(0).Present {
		t.Error("zero entry decodes present")
	}
	if (PTE{}).Encode() != 0 {
		t.Error("absent entry encodes non-zero")
	}
}

func TestMapLookupTranslate(t *testing.T) {
	tbl := newTables(t)
	va := addr.VA(0x7f00_1234_5000)
	pa := addr.PA(0x42_3000)
	if err := tbl.Map(va, pa, addr.PermRW, false); err != nil {
		t.Fatal(err)
	}
	pte, ok := tbl.Lookup(va)
	if !ok || pte.Frame != pa.Frame() || pte.Perm != addr.PermRW || pte.Shared {
		t.Fatalf("lookup = %+v ok=%v", pte, ok)
	}
	got, ok := tbl.Translate(va + 0x123)
	if !ok || got != pa+0x123 {
		t.Fatalf("translate = %#x ok=%v", uint64(got), ok)
	}
	if _, ok := tbl.Lookup(va + addr.PageSize); ok {
		t.Error("adjacent page mapped")
	}
	if tbl.Mapped != 1 {
		t.Errorf("mapped count = %d", tbl.Mapped)
	}
}

func TestMapNonCanonicalFails(t *testing.T) {
	tbl := newTables(t)
	if err := tbl.Map(addr.VA(1<<52), 0, addr.PermRW, false); err == nil {
		t.Error("non-canonical map succeeded")
	}
}

func TestRemapOverwrites(t *testing.T) {
	tbl := newTables(t)
	va := addr.VA(0x1000)
	tbl.Map(va, addr.FrameToPA(10), addr.PermRW, false)
	tbl.Map(va, addr.FrameToPA(20), addr.PermRO, true)
	pte, _ := tbl.Lookup(va)
	if pte.Frame != 20 || pte.Perm != addr.PermRO || !pte.Shared {
		t.Fatalf("remap result: %+v", pte)
	}
	if tbl.Mapped != 1 {
		t.Errorf("mapped count = %d after remap", tbl.Mapped)
	}
}

func TestUnmap(t *testing.T) {
	tbl := newTables(t)
	va := addr.VA(0x2000)
	tbl.Map(va, addr.FrameToPA(5), addr.PermRW, false)
	if !tbl.Unmap(va) {
		t.Fatal("unmap found nothing")
	}
	if tbl.Unmap(va) {
		t.Error("double unmap succeeded")
	}
	if _, ok := tbl.Lookup(va); ok {
		t.Error("lookup after unmap hit")
	}
	if tbl.Mapped != 0 {
		t.Errorf("mapped count = %d", tbl.Mapped)
	}
	if tbl.Unmap(addr.VA(0x7000_0000_0000)) {
		t.Error("unmap of never-touched region succeeded")
	}
}

func TestSetSharedAndPerm(t *testing.T) {
	tbl := newTables(t)
	va := addr.VA(0x3000)
	tbl.Map(va, addr.FrameToPA(7), addr.PermRW, false)
	if !tbl.SetShared(va, true) {
		t.Fatal("SetShared failed")
	}
	pte, _ := tbl.Lookup(va)
	if !pte.Shared || pte.Frame != 7 || pte.Perm != addr.PermRW {
		t.Fatalf("after SetShared: %+v", pte)
	}
	if !tbl.SetPerm(va, addr.PermRO) {
		t.Fatal("SetPerm failed")
	}
	pte, _ = tbl.Lookup(va)
	if pte.Perm != addr.PermRO || !pte.Shared {
		t.Fatalf("after SetPerm: %+v", pte)
	}
	if tbl.SetShared(addr.VA(0x9000_0000), true) {
		t.Error("SetShared on unmapped page succeeded")
	}
	if tbl.SetPerm(addr.VA(0x9000_0000), addr.PermRW) {
		t.Error("SetPerm on unmapped page succeeded")
	}
}

func TestWalkPathLength(t *testing.T) {
	tbl := newTables(t)
	va := addr.VA(0x7f00_0000_0000)
	// Unmapped: the walk stops at the first absent level (the root entry).
	_, n, _, ok := tbl.WalkPath(va)
	if ok || n != 1 {
		t.Fatalf("unmapped walk: len=%d ok=%v", n, ok)
	}
	tbl.Map(va, addr.FrameToPA(9), addr.PermRW, false)
	path, n, pte, ok := tbl.WalkPath(va)
	if !ok || n != Levels {
		t.Fatalf("mapped walk: len=%d ok=%v", n, ok)
	}
	if pte.Frame != 9 {
		t.Errorf("walk leaf frame = %d", pte.Frame)
	}
	// Each path element must be a distinct table page.
	seen := map[uint64]bool{}
	for _, p := range path[:n] {
		if seen[p.Frame()] {
			t.Error("walk revisited a table page")
		}
		seen[p.Frame()] = true
	}
}

func TestWalkPathPartialDepth(t *testing.T) {
	tbl := newTables(t)
	// Map one page; a nearby VA sharing upper levels but unmapped at the
	// leaf must produce a 4-entry path ending not-ok.
	tbl.Map(0x5000, addr.FrameToPA(3), addr.PermRW, false)
	_, n, _, ok := tbl.WalkPath(0x6000)
	if ok || n != Levels {
		t.Fatalf("sibling walk: len=%d ok=%v", n, ok)
	}
}

func TestIntermediateTableReuse(t *testing.T) {
	tbl := newTables(t)
	tbl.Map(0x0000, addr.FrameToPA(1), addr.PermRW, false)
	frames := tbl.FramesUsed
	// Same 2 MiB region: no new intermediate tables.
	tbl.Map(0x1000, addr.FrameToPA(2), addr.PermRW, false)
	if tbl.FramesUsed != frames {
		t.Errorf("adjacent map allocated %d new table frames", tbl.FramesUsed-frames)
	}
	// A distant VA allocates three new intermediate levels.
	tbl.Map(0x7fff_ffff_f000, addr.FrameToPA(3), addr.PermRW, false)
	if tbl.FramesUsed != frames+3 {
		t.Errorf("distant map used %d frames, want %d", tbl.FramesUsed, frames+3)
	}
}

func TestManyMappingsRandomized(t *testing.T) {
	tbl := newTables(t)
	rng := rand.New(rand.NewSource(2))
	want := map[addr.VA]uint64{}
	for i := 0; i < 2000; i++ {
		va := addr.VA(rng.Uint64() % (1 << addr.VABits)).PageAligned()
		frame := rng.Uint64() % (1 << 28)
		if err := tbl.Map(va, addr.FrameToPA(frame), addr.PermRW, false); err != nil {
			t.Fatal(err)
		}
		want[va] = frame
	}
	for va, frame := range want {
		pte, ok := tbl.Lookup(va)
		if !ok || pte.Frame != frame {
			t.Fatalf("lookup %#x: got %+v ok=%v want frame %d", uint64(va), pte, ok, frame)
		}
	}
	if tbl.Mapped != len(want) {
		t.Errorf("mapped = %d, want %d", tbl.Mapped, len(want))
	}
}

func TestOutOfMemory(t *testing.T) {
	alloc := mem.NewAllocator(2 * addr.PageSize) // root + one table page
	tbl, err := New(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x1000, 0, addr.PermRW, false); err == nil {
		t.Error("map succeeded without memory for intermediate tables")
	}
}
