package segment

import (
	"math/rand"
	"testing"

	"hybridvc/internal/addr"
	"hybridvc/internal/mem"
)

// buildWorld creates a manager with n evenly spread segments of 4 MiB each
// and a translator over them.
func buildWorld(t *testing.T, n int, withSC bool, icBytes int) (*Translator, *Manager) {
	t.Helper()
	alloc := mem.NewAllocator(1 << 34)
	m := NewManager(NewNodeArena(alloc))
	ic := NewIndexCache(icBytes)
	m.OnRebuild = ic.Flush
	const segLen = 4 << 20
	for i := 0; i < n; i++ {
		pa, ok := alloc.AllocContiguous(segLen / addr.PageSize)
		if !ok {
			t.Fatal("out of physical memory")
		}
		// Leave gaps between segments so some addresses fault.
		base := addr.VA(uint64(i) * 2 * segLen)
		if _, err := m.Allocate(asidA, base, segLen, pa, addr.PermRW); err != nil {
			t.Fatal(err)
		}
	}
	var sc *SegCache
	if withSC {
		sc = NewSegCache(SegCacheEntries)
	}
	return NewTranslator(DefaultTranslatorConfig(), sc, ic, m), m
}

func TestTranslateBasic(t *testing.T) {
	tr, m := buildWorld(t, 8, false, 32<<10)
	seg := m.Segments(asidA)[3]
	va := seg.Base + 0x1234
	res := tr.Translate(asidA, va)
	if res.Fault {
		t.Fatal("unexpected fault")
	}
	if res.PA != seg.PABase+0x1234 {
		t.Errorf("PA = %#x, want %#x", uint64(res.PA), uint64(seg.PABase)+0x1234)
	}
	if res.Perm != addr.PermRW || res.Seg != seg {
		t.Errorf("result: %+v", res)
	}
	if res.ICProbes == 0 {
		t.Error("walk probed no index cache nodes")
	}
}

func TestTranslateFaultsInGap(t *testing.T) {
	tr, m := buildWorld(t, 4, false, 32<<10)
	seg := m.Segments(asidA)[0]
	res := tr.Translate(asidA, seg.Base+addr.VA(seg.Length)) // first byte past the end
	if !res.Fault {
		t.Fatal("gap address did not fault")
	}
	if tr.Faults.Value() != 1 {
		t.Errorf("faults = %d", tr.Faults.Value())
	}
	// An address space with no segments faults too.
	if res := tr.Translate(asidB, 0x1000); !res.Fault {
		t.Error("foreign ASID translated")
	}
}

func TestTranslateLatencyModel(t *testing.T) {
	tr, m := buildWorld(t, 200, false, 64<<10)
	seg := m.Segments(asidA)[100]
	va := seg.Base + 0x40

	// Cold walk: every node probe misses the index cache.
	cold := tr.Translate(asidA, va)
	depth := cold.ICProbes
	wantCold := uint64(depth)*(3+165) + 7
	if cold.Latency != wantCold {
		t.Errorf("cold latency = %d, want %d (depth %d)", cold.Latency, wantCold, depth)
	}
	if cold.ICMisses != depth {
		t.Errorf("cold misses = %d, want %d", cold.ICMisses, depth)
	}

	// Warm walk: all probes hit; the paper's ~19-cycle bound (<=4 probes
	// at 3 cycles + 7-cycle table).
	warm := tr.Translate(asidA, va)
	wantWarm := uint64(depth)*3 + 7
	if warm.Latency != wantWarm {
		t.Errorf("warm latency = %d, want %d", warm.Latency, wantWarm)
	}
	if warm.Latency > 19 {
		t.Errorf("warm walk %d cycles exceeds the paper's 19-cycle bound", warm.Latency)
	}
	if warm.ICMisses != 0 {
		t.Errorf("warm misses = %d", warm.ICMisses)
	}
}

func TestSegCacheShortCircuits(t *testing.T) {
	tr, m := buildWorld(t, 50, true, 32<<10)
	seg := m.Segments(asidA)[7]
	va := seg.Base + 0x100

	first := tr.Translate(asidA, va)
	if first.SCHit {
		t.Fatal("cold access hit SC")
	}
	second := tr.Translate(asidA, va)
	if !second.SCHit {
		t.Fatal("warm access missed SC")
	}
	if second.Latency != 2 {
		t.Errorf("SC hit latency = %d, want 2", second.Latency)
	}
	if second.PA != first.PA {
		t.Error("SC returned a different translation")
	}
	// A different 2 MiB granule of the same segment misses the SC.
	third := tr.Translate(asidA, va+addr.HugePageSize)
	if third.SCHit {
		t.Error("different granule hit SC")
	}
}

func TestSegCacheGranuleStraddlingSegmentBoundary(t *testing.T) {
	// Two small segments inside one 2 MiB granule: an SC entry for the
	// first must not serve addresses belonging to the second.
	alloc := mem.NewAllocator(1 << 30)
	m := NewManager(NewNodeArena(alloc))
	ic := NewIndexCache(32 << 10)
	m.OnRebuild = ic.Flush
	pa1, _ := alloc.AllocContiguous(16)
	pa2, _ := alloc.AllocContiguous(16)
	s1, _ := m.Allocate(asidA, 0x0, 16*addr.PageSize, pa1, addr.PermRW)
	s2, _ := m.Allocate(asidA, 16*addr.PageSize, 16*addr.PageSize, pa2, addr.PermRO)
	tr := NewTranslator(DefaultTranslatorConfig(), NewSegCache(SegCacheEntries), ic, m)

	r1 := tr.Translate(asidA, 0x100)
	if r1.Seg != s1 {
		t.Fatal("wrong segment for first half")
	}
	r2 := tr.Translate(asidA, 16*addr.PageSize+0x100)
	if r2.Seg != s2 {
		t.Fatalf("wrong segment for second half: %+v", r2)
	}
	if r2.SCHit {
		t.Error("SC entry for s1 served s2's address")
	}
	if r2.PA != pa2+0x100 || r2.Perm != addr.PermRO {
		t.Errorf("r2 = %+v", r2)
	}
}

func TestSegCacheInvalidateSegment(t *testing.T) {
	tr, m := buildWorld(t, 4, true, 32<<10)
	seg := m.Segments(asidA)[1]
	tr.Translate(asidA, seg.Base)
	tr.SC.InvalidateSegment(seg)
	res := tr.Translate(asidA, seg.Base)
	if res.SCHit {
		t.Error("invalidated entry hit")
	}
	tr.Translate(asidA, seg.Base) // refill
	tr.SC.FlushAll()
	if res := tr.Translate(asidA, seg.Base); res.SCHit {
		t.Error("entry survived FlushAll")
	}
}

func TestIndexCacheLocality(t *testing.T) {
	// Real workloads show locality, so a modest index cache achieves high
	// hit rates (Figure 7a); random traffic over thousands of segments
	// defeats a small cache (Figure 7b).
	tr, m := buildWorld(t, 1000, false, 8<<10)
	segs := m.Segments(asidA)

	// Local phase: walk within a handful of segments.
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20000; i++ {
		seg := segs[rng.Intn(8)]
		tr.Translate(asidA, seg.Base+addr.VA(rng.Uint64()%seg.Length))
	}
	localHit := tr.IC.Stats().HitRate()
	if localHit < 0.9 {
		t.Errorf("local index cache hit rate %.3f too low", localHit)
	}
}

func TestIndexCacheWorstCaseRandom(t *testing.T) {
	tr, m := buildWorld(t, 2000, false, 256)
	segs := m.Segments(asidA)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20000; i++ {
		seg := segs[rng.Intn(len(segs))]
		tr.Translate(asidA, seg.Base+addr.VA(rng.Uint64()%seg.Length))
	}
	if hr := tr.IC.Stats().HitRate(); hr > 0.7 {
		t.Errorf("tiny index cache hit rate %.3f implausibly high for random traffic", hr)
	}
}

func TestIndexCacheTinySizes(t *testing.T) {
	// The Figure 7 sweep goes down to one 64 B block; geometry must hold.
	for _, size := range []int{64, 128, 256, 1 << 10, 64 << 10} {
		ic := NewIndexCache(size)
		if ic.SizeBytes() != size {
			t.Errorf("size %d mangled", size)
		}
		if !func() bool { ic.Access(0x40); return true }() {
			t.Errorf("access failed for size %d", size)
		}
	}
}

func TestSegCacheGeometryPanics(t *testing.T) {
	for _, n := range []int{0, 7, 12, 24} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSegCache(%d) did not panic", n)
				}
			}()
			NewSegCache(n)
		}()
	}
}

func TestTranslatorWalkDepthHistogram(t *testing.T) {
	tr, m := buildWorld(t, 300, false, 32<<10)
	for _, s := range m.Segments(asidA)[:50] {
		tr.Translate(asidA, s.Base)
	}
	if tr.WalkDepth.Count() != 50 {
		t.Errorf("walk count = %d", tr.WalkDepth.Count())
	}
	if tr.WalkDepth.Max() > 4 {
		t.Errorf("walk depth %d exceeds 4 for 300 segments", tr.WalkDepth.Max())
	}
}

func TestTreeRebuildFlushesIndexCacheViaHook(t *testing.T) {
	tr, m := buildWorld(t, 16, false, 32<<10)
	seg := m.Segments(asidA)[0]
	tr.Translate(asidA, seg.Base)
	warm := tr.Translate(asidA, seg.Base)
	if warm.ICMisses != 0 {
		t.Fatal("expected warm walk")
	}
	// Allocating a segment rebuilds the tree and must flush the IC.
	pa, _ := mem.NewAllocator(1 << 30).AllocContiguous(1)
	if _, err := m.Allocate(asidB, 0x0, addr.PageSize, pa, addr.PermRW); err != nil {
		t.Fatal(err)
	}
	cold := tr.Translate(asidA, seg.Base)
	if cold.ICMisses == 0 {
		t.Error("index cache served stale node addresses after rebuild")
	}
}
