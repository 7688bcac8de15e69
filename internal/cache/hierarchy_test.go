package cache

import (
	"math/rand"
	"strings"
	"testing"

	"hybridvc/internal/addr"
)

func testHierarchy(cores int) *Hierarchy {
	// Small geometry so evictions happen quickly in tests.
	return NewHierarchy(HierarchyConfig{
		NumCores: cores,
		L1I:      Config{Name: "L1I", SizeBytes: 512, Ways: 2, HitLatency: 2},
		L1D:      Config{Name: "L1D", SizeBytes: 512, Ways: 2, HitLatency: 4},
		L2:       Config{Name: "L2", SizeBytes: 2 << 10, Ways: 4, HitLatency: 6},
		LLC:      Config{Name: "LLC", SizeBytes: 8 << 10, Ways: 8, HitLatency: 27},
	})
}

func TestHierarchyMissFillHit(t *testing.T) {
	h := testHierarchy(1)
	n := vn(asid1, 0x1000)
	res := h.Access(0, Read, n, addr.PermRW)
	if !res.LLCMiss || res.HitLevel != 0 {
		t.Fatalf("cold access: %+v", res)
	}
	if res.Latency != 4+6+27 {
		t.Errorf("cold latency = %d, want 37", res.Latency)
	}
	res = h.Access(0, Read, n, addr.PermRW)
	if res.LLCMiss || res.HitLevel != 1 || res.Latency != 4 {
		t.Errorf("warm access: %+v", res)
	}
	if res.Perm != addr.PermRW {
		t.Errorf("perm = %v", res.Perm)
	}
}

func TestHierarchyFetchUsesL1I(t *testing.T) {
	h := testHierarchy(1)
	n := vn(asid1, 0x2000)
	h.Access(0, Fetch, n, addr.PermExec)
	if h.L1I(0).Probe(n) == nil {
		t.Error("fetch did not fill L1I")
	}
	if h.L1D(0).Probe(n) != nil {
		t.Error("fetch filled L1D")
	}
	res := h.Access(0, Fetch, n, addr.PermExec)
	if res.HitLevel != 1 || res.Latency != 2 {
		t.Errorf("fetch hit: %+v", res)
	}
}

func TestHierarchyL2AndLLCHits(t *testing.T) {
	h := testHierarchy(1)
	base := vn(asid1, 0x0)
	h.Access(0, Read, base, addr.PermRW)
	// Evict base from L1 (512B, 2 ways, 4 sets => stride 256 conflicts).
	h.Access(0, Read, vn(asid1, 0x100), addr.PermRW)
	h.Access(0, Read, vn(asid1, 0x200), addr.PermRW)
	res := h.Access(0, Read, base, addr.PermRW)
	if res.HitLevel != 2 || res.Latency != 4+6 {
		t.Fatalf("want L2 hit at 10 cycles, got %+v", res)
	}
	// Now evict from L2 as well (2KB, 4 ways, 8 sets => stride 512).
	for i := uint64(1); i <= 8; i++ {
		h.Access(0, Read, vn(asid1, i*0x200), addr.PermRW)
	}
	res = h.Access(0, Read, base, addr.PermRW)
	if res.HitLevel != 3 || res.Latency != 4+6+27 {
		t.Fatalf("want LLC hit at 37 cycles, got %+v", res)
	}
}

func TestCoherenceWriteInvalidatesRemote(t *testing.T) {
	h := testHierarchy(2)
	n := pn(0x4000) // a synonym (physical) shared block
	h.Access(0, Read, n, addr.PermRW)
	h.Access(1, Read, n, addr.PermRW)
	if h.L1D(0).Probe(n) == nil || h.L1D(1).Probe(n) == nil {
		t.Fatal("both cores should cache the block")
	}
	h.Access(0, Write, n, addr.PermRW)
	if h.L1D(1).Probe(n) != nil || h.L2(1).Probe(n) != nil {
		t.Error("write did not invalidate remote copies")
	}
	if h.CoherenceInvals.Value() == 0 {
		t.Error("no coherence invalidations counted")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCoherenceReadDowngradesRemoteModified(t *testing.T) {
	h := testHierarchy(2)
	n := pn(0x4000)
	h.Access(0, Write, n, addr.PermRW)
	if got := h.L1D(0).Probe(n).State; got != Modified {
		t.Fatalf("writer state = %v", got)
	}
	res := h.Access(1, Read, n, addr.PermRW)
	if res.LLCMiss {
		t.Error("read of remote-dirty block went to memory")
	}
	if got := h.L1D(0).Probe(n).State; got != Shared {
		t.Errorf("remote state after read = %v, want S", got)
	}
	if got := h.L1D(1).Probe(n).State; got != Shared {
		t.Errorf("reader state = %v, want S", got)
	}
	if h.CoherenceDowngrades.Value() == 0 {
		t.Error("no downgrades counted")
	}
	// The dirty data must survive in the LLC.
	if l := h.LLC().Probe(n); l == nil || l.State != Modified {
		t.Error("LLC did not absorb dirty data")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestWriteToSharedUpgrades(t *testing.T) {
	h := testHierarchy(2)
	n := pn(0x8000)
	h.Access(0, Read, n, addr.PermRW)
	h.Access(1, Read, n, addr.PermRW)
	// Core 1 writes its Shared copy: upgrade must invalidate core 0.
	h.Access(1, Write, n, addr.PermRW)
	if h.L1D(0).Probe(n) != nil {
		t.Error("upgrade did not invalidate the other sharer")
	}
	if got := h.L1D(1).Probe(n).State; got != Modified {
		t.Errorf("writer state = %v, want M", got)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInclusionBackInvalidation(t *testing.T) {
	h := testHierarchy(1)
	// Touch enough distinct lines to force LLC evictions (LLC holds 128).
	for i := uint64(0); i < 200; i++ {
		h.Access(0, Read, vn(asid1, i*0x40), addr.PermRW)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyWritebackReachesMemory(t *testing.T) {
	h := testHierarchy(1)
	n := vn(asid1, 0x0)
	h.Access(0, Write, n, addr.PermRW)
	// Evict through the whole hierarchy: stream over > LLC capacity.
	var wbs []addr.Name
	for i := uint64(1); i < 400; i++ {
		res := h.Access(0, Read, vn(asid1, i*0x40), addr.PermRW)
		wbs = append(wbs, res.Writebacks...)
	}
	found := false
	for _, w := range wbs {
		if w == n {
			found = true
		}
	}
	if !found {
		t.Error("dirty block never written back to memory")
	}
	if h.MemWritebacks.Value() == 0 {
		t.Error("no memory writebacks counted")
	}
}

func TestHierarchyFlushPage(t *testing.T) {
	h := testHierarchy(2)
	h.Access(0, Write, vn(asid1, 0x3000), addr.PermRW)
	h.Access(1, Read, vn(asid1, 0x3040), addr.PermRW)
	flushed, dirty := h.FlushPage(vn(asid1, 0x3000))
	if flushed == 0 || dirty == 0 {
		t.Fatalf("flushed=%d dirty=%d", flushed, dirty)
	}
	if h.LLC().Probe(vn(asid1, 0x3000)) != nil {
		t.Error("line survived page flush")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestHierarchySetPagePerm(t *testing.T) {
	h := testHierarchy(1)
	h.Access(0, Read, vn(asid1, 0x3000), addr.PermRW)
	if n := h.SetPagePerm(vn(asid1, 0x3000), addr.PermRO); n == 0 {
		t.Fatal("no lines updated")
	}
	res := h.Access(0, Read, vn(asid1, 0x3000), addr.PermRW)
	if res.Perm != addr.PermRO {
		t.Errorf("perm after update = %v", res.Perm)
	}
}

func TestHierarchyFlushASID(t *testing.T) {
	h := testHierarchy(1)
	h.Access(0, Read, vn(asid1, 0x1000), addr.PermRW)
	h.Access(0, Read, vn(asid2, 0x1000), addr.PermRW)
	h.Access(0, Read, pn(0x9000), addr.PermRW)
	if n := h.FlushASID(asid1); n == 0 {
		t.Fatal("nothing flushed")
	}
	if h.LLC().Probe(vn(asid1, 0x1000)) != nil {
		t.Error("asid1 line survived")
	}
	if h.LLC().Probe(vn(asid2, 0x1000)) == nil {
		t.Error("asid2 line flushed")
	}
	if h.LLC().Probe(pn(0x9000)) == nil {
		t.Error("physical line flushed by ASID flush")
	}
}

func TestHierarchyRandomizedInvariants(t *testing.T) {
	// Random multi-core access storms must never violate MESI exclusivity
	// or inclusion.
	h := testHierarchy(4)
	rng := rand.New(rand.NewSource(11))
	names := make([]addr.Name, 64)
	for i := range names {
		if i%4 == 0 {
			names[i] = pn(uint64(i) * 0x40) // shared synonym lines
		} else {
			names[i] = vn(addr.MakeASID(0, uint32(i%3+1)), uint64(i)*0x40)
		}
	}
	for step := 0; step < 5000; step++ {
		core := rng.Intn(4)
		kind := Read
		switch rng.Intn(3) {
		case 1:
			kind = Write
		case 2:
			kind = Fetch
		}
		n := names[rng.Intn(len(names))]
		if kind == Write && !n.Synonym {
			// Virtual lines are per-ASID private in this test; writes to
			// them exercise the upgrade path only within one core.
			core = int(n.ASID.Proc()) % 4
		}
		h.Access(core, kind, n, addr.PermRW)
		if step%500 == 0 {
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsCatchesCorruptSet corrupts one cache's set state at a
// time and expects CheckInvariants to name it.
func TestCheckInvariantsCatchesCorruptSet(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(c *Cache)
		want    string
	}{
		// Set 0 holds ways 0, 3, 2, 1 from most to least recent; only way 0
		// is valid.
		{"duplicate way", func(c *Cache) { c.recency[0] &^= 0xF0 }, "once"},
		{"free way first", func(c *Cache) { c.recency[0] = c.recency[0]&^0xFF | 0x03 }, "after an invalid way"},
		{"padding", func(c *Cache) { c.recency[0] |= 1 << 60 }, "past its"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := testHierarchy(2)
			h.Access(0, Read, vn(asid1, 0), addr.PermRW)
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			l2 := h.L2(1) // set 0 of core 1's L2 holds nothing yet
			l2.Fill(vn(asid2, 0), Exclusive, addr.PermRW)
			tc.corrupt(l2)
			err := h.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "L2[1]") {
				t.Fatalf("CheckInvariants = %v, want an L2[1] error containing %q", err, tc.want)
			}
		})
	}
}

func TestDefaultHierarchyConfig(t *testing.T) {
	cfg := DefaultHierarchyConfig(4)
	h := NewHierarchy(cfg)
	if h.NumCores() != 4 {
		t.Errorf("cores = %d", h.NumCores())
	}
	if h.LLC().Config().SizeBytes != 2<<20 {
		t.Errorf("LLC size = %d", h.LLC().Config().SizeBytes)
	}
	if h.Config().L2.HitLatency != 6 {
		t.Errorf("L2 latency = %d", h.Config().L2.HitLatency)
	}
}

func TestNewHierarchyPanics(t *testing.T) {
	for _, n := range []int{0, MaxCores + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d-core hierarchy did not panic", n)
				}
			}()
			NewHierarchy(HierarchyConfig{NumCores: n})
		}()
	}
}

// TestCheckInvariantsCatchesWrongHolders corrupts one LLC way's holder
// mask, or one L2 way's pointer to its LLC way, and expects
// CheckInvariants to reject it: an extra bit changes no result, so only
// this check can see it.
func TestCheckInvariantsCatchesWrongHolders(t *testing.T) {
	n := pn(0x4000)
	for _, tc := range []struct {
		name    string
		corrupt func(h *Hierarchy, li, i2 uint64)
		want    string
	}{
		{"extra holder", func(h *Hierarchy, li, _ uint64) { h.holders[li] |= 1 << 2 }, "holder mask"},
		{"missing holder", func(h *Hierarchy, li, _ uint64) { h.holders[li] &^= 1 << 1 }, "holder mask"},
		{"holder of a free way", func(h *Hierarchy, li, _ uint64) { h.holders[li^1] = 1 }, "holder mask"},
		{"stale back-pointer", func(h *Hierarchy, _, i2 uint64) { h.llcWay[1][i2] ^= 1 }, "points at LLC way"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := testHierarchy(4)
			h.Access(0, Read, n, addr.PermRW)
			h.Access(1, Read, n, addr.PermRW)
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			li, ok := h.llc.findWay(n)
			i2, ok2 := h.l2[1].findWay(n)
			if !ok || !ok2 || h.holders[li] != 0b11 {
				t.Fatalf("LLC way found %v, L2 way found %v, holders %#b; want both and 0b11", ok, ok2, h.holders[li])
			}
			tc.corrupt(h, li, i2)
			if err := h.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
