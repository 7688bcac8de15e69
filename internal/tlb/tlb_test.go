package tlb

import (
	"math/rand"
	"testing"

	"hybridvc/internal/addr"
)

var asidA = addr.MakeASID(0, 1)
var asidB = addr.MakeASID(0, 2)

func small() *TLB {
	return New(Config{Name: "t", Entries: 8, Ways: 2, Latency: 1})
}

func TestTLBGeometryPanics(t *testing.T) {
	for _, bad := range []Config{
		{Entries: 0, Ways: 1},
		{Entries: 8, Ways: 0},
		{Entries: 8, Ways: 3},
		{Entries: 24, Ways: 4}, // 6 sets, not a power of two
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

func TestTLBInsertLookup(t *testing.T) {
	tb := small()
	if _, ok := tb.Lookup(asidA, 5); ok {
		t.Fatal("cold lookup hit")
	}
	tb.Insert(Entry{ASID: asidA, VPN: 5, PFN: 42, Perm: addr.PermRW})
	e, ok := tb.Lookup(asidA, 5)
	if !ok || e.PFN != 42 || e.Perm != addr.PermRW {
		t.Fatalf("lookup after insert: %+v ok=%v", e, ok)
	}
}

func TestTLBASIDSeparation(t *testing.T) {
	tb := small()
	tb.Insert(Entry{ASID: asidA, VPN: 5, PFN: 1})
	tb.Insert(Entry{ASID: asidB, VPN: 5, PFN: 2})
	ea, _ := tb.Lookup(asidA, 5)
	eb, _ := tb.Lookup(asidB, 5)
	if ea == nil || eb == nil || ea.PFN != 1 || eb.PFN != 2 {
		t.Fatal("ASIDs aliased")
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tb := small() // 4 sets x 2 ways; set = vpn & 3
	tb.Insert(Entry{ASID: asidA, VPN: 0, PFN: 10})
	tb.Insert(Entry{ASID: asidA, VPN: 4, PFN: 14})
	tb.Lookup(asidA, 0) // VPN 4 becomes LRU
	v, evicted := tb.Insert(Entry{ASID: asidA, VPN: 8, PFN: 18})
	if !evicted || v.VPN != 4 {
		t.Fatalf("victim = %+v evicted=%v, want VPN 4", v, evicted)
	}
	if _, ok := tb.Probe(asidA, 0); !ok {
		t.Error("MRU entry evicted")
	}
}

func TestTLBInsertReplacesInPlace(t *testing.T) {
	tb := small()
	tb.Insert(Entry{ASID: asidA, VPN: 3, PFN: 1, Perm: addr.PermRO})
	if _, evicted := tb.Insert(Entry{ASID: asidA, VPN: 3, PFN: 9, Perm: addr.PermRW}); evicted {
		t.Error("replacement evicted")
	}
	e, _ := tb.Probe(asidA, 3)
	if e.PFN != 9 || e.Perm != addr.PermRW {
		t.Errorf("entry not updated: %+v", e)
	}
	if tb.Occupancy() != 1 {
		t.Errorf("occupancy = %d", tb.Occupancy())
	}
}

func TestTLBShootdown(t *testing.T) {
	tb := small()
	tb.Insert(Entry{ASID: asidA, VPN: 7, PFN: 1})
	tb.Insert(Entry{ASID: asidB, VPN: 7, PFN: 2})
	if !tb.Shootdown(asidA, 7) {
		t.Fatal("shootdown found nothing")
	}
	if tb.Shootdown(asidA, 7) {
		t.Error("second shootdown found an entry")
	}
	if _, ok := tb.Probe(asidB, 7); !ok {
		t.Error("shootdown removed the wrong ASID")
	}
}

func TestTLBFlushASID(t *testing.T) {
	tb := small()
	tb.Insert(Entry{ASID: asidA, VPN: 1})
	tb.Insert(Entry{ASID: asidA, VPN: 2})
	tb.Insert(Entry{ASID: asidB, VPN: 3})
	if n := tb.FlushASID(asidA); n != 2 {
		t.Fatalf("flushed %d, want 2", n)
	}
	if tb.Occupancy() != 1 {
		t.Errorf("occupancy = %d", tb.Occupancy())
	}
	tb.FlushAll()
	if tb.Occupancy() != 0 {
		t.Error("FlushAll left entries")
	}
}

func TestTLBNonSynonymFlag(t *testing.T) {
	// False-positive correction entries carry NonSynonym.
	tb := small()
	tb.Insert(Entry{ASID: asidA, VPN: 9, NonSynonym: true})
	e, ok := tb.Probe(asidA, 9)
	if !ok || !e.NonSynonym {
		t.Fatal("NonSynonym flag lost")
	}
}

func TestTLBFullyAssociative(t *testing.T) {
	tb := New(Config{Name: "fa", Entries: 4, Ways: 4, Latency: 1})
	for vpn := uint64(0); vpn < 4; vpn++ {
		tb.Insert(Entry{ASID: asidA, VPN: vpn * 16}) // would conflict if set-indexed
	}
	if tb.Occupancy() != 4 {
		t.Errorf("occupancy = %d, want 4 (fully associative)", tb.Occupancy())
	}
}

func TestTwoLevelRefill(t *testing.T) {
	tl := NewTwoLevel(DefaultTwoLevelConfig())
	res := tl.Lookup(asidA, 100)
	if res.Level != 0 || res.Latency != 1+7 {
		t.Fatalf("cold lookup: %+v", res)
	}
	tl.Insert(Entry{ASID: asidA, VPN: 100, PFN: 55})
	res = tl.Lookup(asidA, 100)
	if res.Level != 1 || res.Latency != 1 || res.Entry.PFN != 55 {
		t.Fatalf("L1 hit: %+v", res)
	}
	// Evict from L1 (64 entries, 16 sets, 4 ways): 5 conflicting VPNs.
	for i := uint64(1); i <= 4; i++ {
		tl.Insert(Entry{ASID: asidA, VPN: 100 + i*16, PFN: i})
	}
	res = tl.Lookup(asidA, 100)
	if res.Level != 2 || res.Latency != 8 {
		t.Fatalf("L2 hit: %+v", res)
	}
	// The L2 hit must refill L1.
	res = tl.Lookup(asidA, 100)
	if res.Level != 1 {
		t.Fatalf("refill missing: %+v", res)
	}
}

func TestTwoLevelShootdownAndCounts(t *testing.T) {
	tl := NewTwoLevel(DefaultTwoLevelConfig())
	tl.Insert(Entry{ASID: asidA, VPN: 1, PFN: 1})
	tl.Shootdown(asidA, 1)
	if res := tl.Lookup(asidA, 1); res.Level != 0 {
		t.Error("entry survived shootdown")
	}
	tl.Insert(Entry{ASID: asidA, VPN: 2, PFN: 2})
	tl.FlushASID(asidA)
	if res := tl.Lookup(asidA, 2); res.Level != 0 {
		t.Error("entry survived ASID flush")
	}
}

func TestTLBCapacityBehaviour(t *testing.T) {
	// A working set larger than the TLB must thrash; smaller must not.
	tb := New(Config{Name: "t", Entries: 64, Ways: 4, Latency: 1})
	fill := func(pages uint64, rounds int) (hits, total uint64) {
		tb.FlushAll()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < rounds; i++ {
			vpn := rng.Uint64() % pages
			if _, ok := tb.Lookup(asidA, vpn); ok {
				hits++
			} else {
				tb.Insert(Entry{ASID: asidA, VPN: vpn})
			}
		}
		return hits, uint64(rounds)
	}
	hitsSmall, totalSmall := fill(16, 4000)
	hitsBig, totalBig := fill(4096, 4000)
	if float64(hitsSmall)/float64(totalSmall) < 0.95 {
		t.Errorf("small working set hit rate %f too low", float64(hitsSmall)/float64(totalSmall))
	}
	if float64(hitsBig)/float64(totalBig) > 0.1 {
		t.Errorf("large working set hit rate %f too high", float64(hitsBig)/float64(totalBig))
	}
}
