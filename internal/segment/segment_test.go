package segment

import (
	"math/rand"
	"sort"
	"testing"

	"hybridvc/internal/addr"
	"hybridvc/internal/mem"
)

var asidA = addr.MakeASID(0, 1)
var asidB = addr.MakeASID(0, 2)

func newManager(t *testing.T) (*Manager, *mem.Allocator) {
	t.Helper()
	alloc := mem.NewAllocator(1 << 30)
	return NewManager(NewNodeArena(alloc)), alloc
}

func TestKeyRoundTrip(t *testing.T) {
	k := MakeKey(asidA, 0x7fff_ffff_f000)
	if k.ASID() != asidA || k.VA() != 0x7fff_ffff_f000 {
		t.Fatalf("round trip: %v %#x", k.ASID(), uint64(k.VA()))
	}
	// Keys order first by ASID, then by VA.
	if MakeKey(asidA, 0xffff_ffff_ffff) >= MakeKey(asidB, 0) {
		t.Error("key ordering violates ASID-major order")
	}
}

func TestSegmentContainsTranslate(t *testing.T) {
	s := &Segment{ASID: asidA, Base: 0x10000, Length: 0x4000, PABase: 0x9_0000, Perm: addr.PermRW}
	if !s.Contains(asidA, 0x10000) || !s.Contains(asidA, 0x13fff) {
		t.Error("segment excludes interior addresses")
	}
	if s.Contains(asidA, 0x14000) || s.Contains(asidA, 0xffff) {
		t.Error("segment includes exterior addresses")
	}
	if s.Contains(asidB, 0x10000) {
		t.Error("segment crosses address spaces")
	}
	if got := s.Translate(0x10123); got != 0x9_0123 {
		t.Errorf("translate = %#x", uint64(got))
	}
	if s.Pages() != 4 {
		t.Errorf("pages = %d", s.Pages())
	}
}

func TestSegmentUtilization(t *testing.T) {
	s := &Segment{ASID: asidA, Base: 0, Length: 10 * addr.PageSize}
	if s.Utilization() != 0 {
		t.Error("untouched segment has nonzero utilization")
	}
	s.Touch(0x0)
	s.Touch(0x10)   // same page
	s.Touch(0x1000) // second page
	if got := s.Utilization(); got != 0.2 {
		t.Errorf("utilization = %f, want 0.2", got)
	}
}

func TestTableAllocRelease(t *testing.T) {
	tb := NewTable()
	if tb.Capacity() != TableCapacity || tb.Used() != 0 {
		t.Fatal("fresh table wrong")
	}
	s := &Segment{}
	id, ok := tb.Alloc(s)
	if !ok || tb.Get(id) != s || s.ID != id {
		t.Fatal("alloc broken")
	}
	tb.Release(id)
	if tb.Get(id) != nil || tb.Used() != 0 {
		t.Fatal("release broken")
	}
	if tb.Get(NoID) != nil || tb.Get(TableCapacity) != nil {
		t.Error("out-of-range Get returned a segment")
	}
}

func TestTableExhaustion(t *testing.T) {
	tb := NewTable()
	for i := 0; i < TableCapacity; i++ {
		if _, ok := tb.Alloc(&Segment{}); !ok {
			t.Fatalf("alloc %d failed early", i)
		}
	}
	if _, ok := tb.Alloc(&Segment{}); ok {
		t.Error("alloc beyond capacity succeeded")
	}
}

func TestTableDoubleReleasePanics(t *testing.T) {
	tb := NewTable()
	id, _ := tb.Alloc(&Segment{})
	tb.Release(id)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	tb.Release(id)
}

func TestManagerAllocateLookup(t *testing.T) {
	m, _ := newManager(t)
	s, err := m.Allocate(asidA, 0x10000, 0x8000, 0x100000, addr.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.LookupSoft(asidA, 0x12000)
	if !ok || got != s {
		t.Fatal("lookup missed allocated segment")
	}
	if _, ok := m.LookupSoft(asidA, 0x18000); ok {
		t.Error("lookup hit beyond segment end")
	}
	if _, ok := m.LookupSoft(asidA, 0xf000); ok {
		t.Error("lookup hit before segment start")
	}
	if _, ok := m.LookupSoft(asidB, 0x12000); ok {
		t.Error("lookup crossed address spaces")
	}
}

func TestManagerOverlapRejected(t *testing.T) {
	m, _ := newManager(t)
	if _, err := m.Allocate(asidA, 0x10000, 0x8000, 0, addr.PermRW); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ base, len uint64 }{
		{0x10000, 0x1000}, // exact start
		{0x17000, 0x2000}, // tail overlap
		{0xf000, 0x2000},  // head overlap
		{0x12000, 0x1000}, // interior
	} {
		if _, err := m.Allocate(asidA, addr.VA(c.base), c.len, 0, addr.PermRW); err == nil {
			t.Errorf("overlap %+v accepted", c)
		}
	}
	// Adjacent (touching) ranges are fine.
	if _, err := m.Allocate(asidA, 0x18000, 0x1000, 0, addr.PermRW); err != nil {
		t.Errorf("adjacent allocation rejected: %v", err)
	}
	// Same range in another address space is fine.
	if _, err := m.Allocate(asidB, 0x10000, 0x8000, 0, addr.PermRW); err != nil {
		t.Errorf("cross-ASID allocation rejected: %v", err)
	}
	if _, err := m.Allocate(asidA, 0x20000, 0, 0, addr.PermRW); err == nil {
		t.Error("zero-length allocation accepted")
	}
}

func TestManagerFree(t *testing.T) {
	m, _ := newManager(t)
	s, _ := m.Allocate(asidA, 0x10000, 0x1000, 0, addr.PermRW)
	m.Free(s)
	if _, ok := m.LookupSoft(asidA, 0x10000); ok {
		t.Error("freed segment still found")
	}
	if m.Table.Used() != 0 {
		t.Error("table slot leaked")
	}
	// The range can be reallocated.
	if _, err := m.Allocate(asidA, 0x10000, 0x1000, 0, addr.PermRW); err != nil {
		t.Error(err)
	}
	if m.MaxUsed != 1 {
		t.Errorf("MaxUsed = %d", m.MaxUsed)
	}
}

func TestManagerSplitFragmentation(t *testing.T) {
	m, alloc := newManager(t)
	pa, _ := alloc.AllocContiguous(100)
	s, err := m.Allocate(asidA, 0x100000, 100*addr.PageSize, pa, addr.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Split(s, 10,
		func(frames uint64) (addr.PA, bool) { return alloc.AllocContiguous(frames) },
		func(p addr.PA, frames uint64) { alloc.Free(p, frames) })
	if err != nil {
		t.Fatal(err)
	}
	segs := m.Segments(asidA)
	if len(segs) != 10 {
		t.Fatalf("split produced %d segments", len(segs))
	}
	// The union must cover the original range exactly, in order.
	va := addr.VA(0x100000)
	var total uint64
	for _, s := range segs {
		if s.Base != va {
			t.Fatalf("gap at %#x", uint64(va))
		}
		va += addr.VA(s.Length)
		total += s.Length
	}
	if total != 100*addr.PageSize {
		t.Errorf("total length = %#x", total)
	}
	// Every address must still resolve.
	for off := uint64(0); off < 100*addr.PageSize; off += addr.PageSize {
		if _, ok := m.LookupSoft(asidA, addr.VA(0x100000+off)); !ok {
			t.Fatalf("address %#x lost after split", 0x100000+off)
		}
	}
}

func TestIndexTreeEmpty(t *testing.T) {
	m, _ := newManager(t)
	id, path := m.Tree.Lookup(asidA, 0x1000)
	if id != NoID || path != nil {
		t.Error("empty tree lookup returned something")
	}
	if m.Tree.Depth() != 0 || m.Tree.Len() != 0 {
		t.Error("empty tree has size")
	}
}

func TestIndexTreeDepthFour(t *testing.T) {
	// The paper's bound: 2048 segments fit in a depth-four tree with
	// fanout seven.
	m, _ := newManager(t)
	entries := make([]TreeEntry, TableCapacity)
	for i := range entries {
		entries[i] = TreeEntry{Key: MakeKey(asidA, addr.VA(i)<<20), Value: ID(i % TableCapacity)}
	}
	m.Tree.Build(entries)
	if d := m.Tree.Depth(); d != 4 {
		t.Errorf("depth = %d, want 4", d)
	}
	if err := m.Tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every key must resolve to its own value, and interior addresses to
	// their predecessor.
	for i := 0; i < TableCapacity; i += 37 {
		va := addr.VA(i) << 20
		id, path := m.Tree.Lookup(asidA, va)
		if id != ID(i%TableCapacity) {
			t.Fatalf("lookup %d returned %d", i, id)
		}
		if len(path) != 4 {
			t.Fatalf("path length %d", len(path))
		}
		id2, _ := m.Tree.Lookup(asidA, va+0x8000)
		if id2 != id {
			t.Fatalf("interior lookup returned %d, want %d", id2, id)
		}
	}
	// An address below the first segment start must miss.
	if id, _ := m.Tree.Lookup(addr.MakeASID(0, 0), 0); id != NoID {
		t.Error("address below all keys resolved")
	}
}

func TestIndexTreeBuildUnsortedPanics(t *testing.T) {
	m, _ := newManager(t)
	defer func() {
		if recover() == nil {
			t.Error("unsorted build did not panic")
		}
	}()
	m.Tree.Build([]TreeEntry{{Key: 5}, {Key: 3}})
}

func TestIndexTreeRandomizedAgainstReference(t *testing.T) {
	m, _ := newManager(t)
	rng := rand.New(rand.NewSource(4))
	keys := map[Key]ID{}
	for len(keys) < 500 {
		va := addr.VA(rng.Uint64()%(1<<40)) & ^addr.VA(0xfff)
		k := MakeKey(asidA, va)
		if _, dup := keys[k]; !dup {
			keys[k] = ID(len(keys))
		}
	}
	entries := make([]TreeEntry, 0, len(keys))
	for k, v := range keys {
		entries = append(entries, TreeEntry{Key: k, Value: v})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	m.Tree.Build(entries)
	if err := m.Tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Reference: binary search for predecessor.
	ref := func(k Key) ID {
		i := sort.Search(len(entries), func(i int) bool { return entries[i].Key > k })
		if i == 0 {
			return NoID
		}
		return entries[i-1].Value
	}
	for trial := 0; trial < 5000; trial++ {
		va := addr.VA(rng.Uint64() % (1 << 40))
		got, path := m.Tree.Lookup(asidA, va)
		if want := ref(MakeKey(asidA, va)); got != want {
			t.Fatalf("lookup %#x: got %d want %d", uint64(va), got, want)
		}
		if len(path) != m.Tree.Depth() && got != NoID {
			t.Fatalf("path length %d, depth %d", len(path), m.Tree.Depth())
		}
	}
}

func TestNodeArenaPacksAndResets(t *testing.T) {
	alloc := mem.NewAllocator(1 << 20)
	arena := NewNodeArena(alloc)
	pas := map[addr.PA]bool{}
	for i := 0; i < NodesPerPage+1; i++ {
		pa, err := arena.newNodePA()
		if err != nil {
			t.Fatal(err)
		}
		if pas[pa] {
			t.Fatal("duplicate node address")
		}
		if uint64(pa)%addr.LineSize != 0 {
			t.Fatal("node not line aligned")
		}
		pas[pa] = true
	}
	// 65 nodes need exactly 2 frames.
	if alloc.AllocatedFrames() != 2 {
		t.Errorf("frames = %d, want 2", alloc.AllocatedFrames())
	}
	arena.Reset()
	if alloc.AllocatedFrames() != 0 || arena.Live != 0 {
		t.Error("reset leaked frames")
	}
}

func TestCompactMergesAdjacentSegments(t *testing.T) {
	m, alloc := newManager(t)
	// Three VA- and PA-contiguous pieces plus one disjoint segment.
	pa, _ := alloc.AllocContiguous(48)
	for i := 0; i < 3; i++ {
		s, err := m.Allocate(asidA, addr.VA(i*16)*addr.PageSize, 16*addr.PageSize,
			pa+addr.PA(i*16)*addr.PageSize, addr.PermRW)
		if err != nil {
			t.Fatal(err)
		}
		s.Touch(s.Base)
	}
	paX, _ := alloc.AllocContiguous(8)
	if _, err := m.Allocate(asidA, 1<<30, 8*addr.PageSize, paX, addr.PermRW); err != nil {
		t.Fatal(err)
	}
	if merges := m.Compact(asidA); merges != 2 {
		t.Fatalf("merges = %d, want 2", merges)
	}
	if m.Table.Used() != 2 {
		t.Errorf("segments after compact = %d, want 2", m.Table.Used())
	}
	// Every address in the merged range still translates correctly.
	for off := uint64(0); off < 48*addr.PageSize; off += addr.PageSize {
		s, ok := m.LookupSoft(asidA, addr.VA(off))
		if !ok || s.Translate(addr.VA(off)) != pa+addr.PA(off) {
			t.Fatalf("translation broken at %#x", off)
		}
		if id, _ := m.Tree.Lookup(asidA, addr.VA(off)); id != s.ID {
			t.Fatalf("tree stale at %#x", off)
		}
	}
	// Touch accounting survives the merge.
	s, _ := m.LookupSoft(asidA, 0)
	if s.TouchedPages() != 3 {
		t.Errorf("touched pages after merge = %d, want 3", s.TouchedPages())
	}
}

func TestCompactSkipsNonContiguous(t *testing.T) {
	m, alloc := newManager(t)
	// VA-adjacent but physically disjoint: must NOT merge.
	paA, _ := alloc.AllocContiguous(16)
	paB, _ := alloc.AllocContiguous(32) // leaves a gap after paA? ensure disjoint phys ordering
	_ = paB
	paC, _ := alloc.AllocContiguous(16)
	m.Allocate(asidA, 0, 16*addr.PageSize, paA, addr.PermRW)
	m.Allocate(asidA, 16*addr.PageSize, 16*addr.PageSize, paC, addr.PermRW)
	if merges := m.Compact(asidA); merges != 0 {
		t.Errorf("merged physically disjoint segments (%d merges)", merges)
	}
	// Permission mismatch also blocks merging.
	m2, alloc2 := newManager(t)
	pa2, _ := alloc2.AllocContiguous(32)
	m2.Allocate(asidA, 0, 16*addr.PageSize, pa2, addr.PermRW)
	m2.Allocate(asidA, 16*addr.PageSize, 16*addr.PageSize, pa2+16*addr.PageSize, addr.PermRO)
	if merges := m2.Compact(asidA); merges != 0 {
		t.Errorf("merged mixed-permission segments (%d merges)", merges)
	}
}

func TestCompactIncrementalMode(t *testing.T) {
	m, alloc := newManager(t)
	m.Incremental = true
	pa, _ := alloc.AllocContiguous(64)
	for i := 0; i < 4; i++ {
		if _, err := m.Allocate(asidA, addr.VA(i*16)*addr.PageSize, 16*addr.PageSize,
			pa+addr.PA(i*16)*addr.PageSize, addr.PermRW); err != nil {
			t.Fatal(err)
		}
	}
	if merges := m.Compact(asidA); merges != 3 {
		t.Fatalf("merges = %d, want 3", merges)
	}
	for off := uint64(0); off < 64*addr.PageSize; off += 8 * addr.PageSize {
		s, ok := m.LookupSoft(asidA, addr.VA(off))
		if !ok {
			t.Fatalf("lookup lost %#x", off)
		}
		if id, _ := m.Tree.Lookup(asidA, addr.VA(off)); id != s.ID {
			t.Fatalf("incremental tree stale at %#x: %d vs %d", off, id, s.ID)
		}
	}
}
