package cache

import (
	"testing"

	"hybridvc/internal/addr"
)

var asid1 = addr.MakeASID(0, 1)
var asid2 = addr.MakeASID(0, 2)

func vn(a addr.ASID, va uint64) addr.Name { return addr.VirtName(a, addr.VA(va)) }
func pn(pa uint64) addr.Name              { return addr.PhysName(addr.PA(pa)) }

func smallCache() *Cache {
	// 4 sets x 2 ways of 64 B lines = 512 B.
	return New(Config{Name: "t", SizeBytes: 512, Ways: 2, HitLatency: 1})
}

func TestCacheGeometry(t *testing.T) {
	c := smallCache()
	if c.NumSets() != 4 {
		t.Fatalf("sets = %d, want 4", c.NumSets())
	}
	for _, bad := range []Config{
		{SizeBytes: 0, Ways: 1},
		{SizeBytes: 512, Ways: 0},
		{SizeBytes: 512, Ways: 3},   // 8 lines not divisible by 3
		{SizeBytes: 576, Ways: 3},   // 3 sets: not a power of two
		{SizeBytes: 32, Ways: 1},    // smaller than one line
		{SizeBytes: 2048, Ways: 32}, // one set, but a recency word holds 16 ways
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
}

func TestCacheMissThenHit(t *testing.T) {
	c := smallCache()
	n := vn(asid1, 0x1000)
	if c.Access(n) != nil {
		t.Fatal("cold access hit")
	}
	c.Fill(n, Exclusive, addr.PermRW)
	l := c.Access(n)
	if l == nil {
		t.Fatal("access after fill missed")
	}
	if l.Perm != addr.PermRW || l.State != Exclusive {
		t.Errorf("line = %+v", *l)
	}
	if c.Stats.Hits.Value() != 1 || c.Stats.Misses.Value() != 1 {
		t.Errorf("stats = %v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache()
	// Three lines mapping to the same set (stride = sets*linesize = 256).
	n0, n1, n2 := vn(asid1, 0x0), vn(asid1, 0x100), vn(asid1, 0x200)
	c.Fill(n0, Exclusive, addr.PermRW)
	c.Fill(n1, Exclusive, addr.PermRW)
	c.Access(n0) // make n1 the LRU
	v, evicted := c.Fill(n2, Exclusive, addr.PermRW)
	if !evicted || v.Name != n1 {
		t.Fatalf("evicted %v (ok=%v), want %v", v.Name, evicted, n1)
	}
	if c.Probe(n0) == nil || c.Probe(n2) == nil || c.Probe(n1) != nil {
		t.Error("post-eviction contents wrong")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := smallCache()
	n0, n1, n2 := vn(asid1, 0x0), vn(asid1, 0x100), vn(asid1, 0x200)
	c.Fill(n0, Modified, addr.PermRW)
	c.Fill(n1, Exclusive, addr.PermRW)
	c.Access(n1)
	v, evicted := c.Fill(n2, Exclusive, addr.PermRW)
	if !evicted || v.Name != n0 || !v.Dirty {
		t.Fatalf("victim = %+v (ok=%v), want dirty %v", v, evicted, n0)
	}
	if c.WriteBks.Value() != 1 {
		t.Errorf("writebacks = %d", c.WriteBks.Value())
	}
}

func TestHomonymSeparation(t *testing.T) {
	// The same VA in two address spaces must occupy two distinct lines:
	// the ASID tag extension fixes the homonym problem.
	c := smallCache()
	c.Fill(vn(asid1, 0x1000), Modified, addr.PermRW)
	c.Fill(vn(asid2, 0x1000), Exclusive, addr.PermRO)
	l1 := c.Probe(vn(asid1, 0x1000))
	l2 := c.Probe(vn(asid2, 0x1000))
	if l1 == nil || l2 == nil || l1 == l2 {
		t.Fatal("homonym lines aliased")
	}
	if l1.Perm == l2.Perm {
		t.Error("homonym lines share permission")
	}
}

func TestSynonymBitSeparatesSpaces(t *testing.T) {
	// A physical name and a virtual name with identical address bits are
	// distinct blocks (the synonym tag bit is part of the identity).
	c := smallCache()
	c.Fill(pn(0x2000), Exclusive, addr.PermRW)
	if c.Probe(vn(addr.ASID(0), 0x2000)) != nil {
		t.Error("virtual probe hit a physical line")
	}
	if c.Probe(pn(0x2000)) == nil {
		t.Error("physical line lost")
	}
}

func TestInvalidateAndDowngrade(t *testing.T) {
	c := smallCache()
	n := vn(asid1, 0x40)
	c.Fill(n, Modified, addr.PermRW)
	if dirty := c.Downgrade(n); !dirty {
		t.Error("downgrading M line did not report dirty")
	}
	if c.Probe(n).State != Shared {
		t.Error("downgrade did not set Shared")
	}
	if dirty, present := c.Invalidate(n); dirty || !present {
		t.Errorf("invalidate: dirty=%v present=%v", dirty, present)
	}
	if _, present := c.Invalidate(n); present {
		t.Error("double invalidate reported present")
	}
	if c.Downgrade(n) {
		t.Error("downgrade of absent line reported dirty")
	}
}

func TestFlushPage(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 16 << 10, Ways: 4, HitLatency: 1})
	// Fill 3 lines in page 0x3000 (one dirty) and 1 line elsewhere.
	c.Fill(vn(asid1, 0x3000), Modified, addr.PermRW)
	c.Fill(vn(asid1, 0x3040), Exclusive, addr.PermRW)
	c.Fill(vn(asid1, 0x3f80), Shared, addr.PermRO)
	c.Fill(vn(asid1, 0x5000), Exclusive, addr.PermRW)
	flushed, dirty := c.FlushPage(vn(asid1, 0x3000))
	if flushed != 3 || dirty != 1 {
		t.Fatalf("flushed=%d dirty=%d, want 3,1", flushed, dirty)
	}
	if c.Probe(vn(asid1, 0x5000)) == nil {
		t.Error("unrelated line flushed")
	}
	// Same page in a different ASID must be untouched.
	c.Fill(vn(asid2, 0x3000), Exclusive, addr.PermRW)
	if f, _ := c.FlushPage(vn(asid1, 0x3000)); f != 0 {
		t.Errorf("cross-ASID flush removed %d lines", f)
	}
}

func TestSetPagePerm(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 16 << 10, Ways: 4, HitLatency: 1})
	c.Fill(vn(asid1, 0x3000), Exclusive, addr.PermRW)
	c.Fill(vn(asid1, 0x3040), Exclusive, addr.PermRW)
	c.Fill(vn(asid1, 0x4000), Exclusive, addr.PermRW)
	if n := c.SetPagePerm(vn(asid1, 0x3000), addr.PermRO); n != 2 {
		t.Fatalf("updated %d lines, want 2", n)
	}
	if c.Probe(vn(asid1, 0x3000)).Perm != addr.PermRO {
		t.Error("perm not updated")
	}
	if c.Probe(vn(asid1, 0x4000)).Perm != addr.PermRW {
		t.Error("unrelated perm changed")
	}
}

func TestOccupancyAndForEach(t *testing.T) {
	c := smallCache()
	if c.Occupancy() != 0 {
		t.Error("new cache not empty")
	}
	c.Fill(vn(asid1, 0x0), Exclusive, addr.PermRW)
	c.Fill(vn(asid1, 0x40), Exclusive, addr.PermRW)
	if c.Occupancy() != 2 {
		t.Errorf("occupancy = %d", c.Occupancy())
	}
	count := 0
	c.ForEachLine(func(addr.Name, *Line) { count++ })
	if count != 2 {
		t.Errorf("ForEachLine visited %d", count)
	}
}

func TestFillExistingUpdates(t *testing.T) {
	c := smallCache()
	n := vn(asid1, 0x80)
	c.Fill(n, Shared, addr.PermRO)
	if _, evicted := c.Fill(n, Modified, addr.PermRW); evicted {
		t.Error("refill evicted")
	}
	l := c.Probe(n)
	if l.State != Modified || l.Perm != addr.PermRW {
		t.Errorf("refill did not update: %+v", *l)
	}
	if c.Occupancy() != 1 {
		t.Error("refill duplicated line")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q", s, s.String())
		}
	}
}
