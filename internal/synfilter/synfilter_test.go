package synfilter

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridvc/internal/addr"
)

func TestEmptyFilterRejectsEverything(t *testing.T) {
	f := New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		va := addr.VA(rng.Uint64() % (1 << addr.VABits))
		if f.IsCandidate(va) {
			t.Fatalf("empty filter flagged %#x", uint64(va))
		}
	}
}

func TestMarkedPageIsAlwaysCandidate(t *testing.T) {
	// The correctness guarantee: a marked synonym page must always be
	// detected, along with every other page in its 32 KiB granule.
	f := New()
	va := addr.VA(0x7f12_3456_7000)
	f.MarkSynonym(va)
	if !f.IsCandidate(va) {
		t.Fatal("marked page not a candidate")
	}
	// Any offset within the page hits too.
	if !f.IsCandidate(va + 0xfff) {
		t.Fatal("offset within marked page not a candidate")
	}
	// Pages within the same 32 KiB granule are necessarily candidates
	// (granule-level tracking).
	granuleStart := addr.VA(uint64(va) &^ (1<<FineBits - 1))
	if !f.IsCandidate(granuleStart) {
		t.Fatal("same-granule page not a candidate")
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	prop := func(pages []uint32) bool {
		f := New()
		vas := make([]addr.VA, len(pages))
		for i, p := range pages {
			vas[i] = addr.PageToVA(uint64(p))
			f.MarkSynonym(vas[i])
		}
		for _, va := range vas {
			if !f.IsCandidate(va) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFalsePositiveRateLowForTypicalLoad(t *testing.T) {
	// Table II: with realistic numbers of shared regions, false positives
	// stay below a fraction of a percent of lookups. Mark 8 shared regions
	// of 8 pages each (the common allocation pattern) and probe distant
	// addresses.
	f := New()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		start := addr.VA(rng.Uint64()%(1<<40)) & ^addr.VA(1<<FineBits-1)
		f.MarkSynonymRange(start, 8*addr.PageSize)
	}
	fp := 0
	const trials = 200000
	for i := 0; i < trials; i++ {
		// Probe addresses in a disjoint upper region.
		va := addr.VA(1<<41 + rng.Uint64()%(1<<40))
		if f.IsCandidate(va) {
			fp++
		}
	}
	rate := float64(fp) / trials
	if rate > 0.005 {
		t.Errorf("false positive rate %.5f exceeds 0.5%%", rate)
	}
}

func TestCoarseFilterScreensDistantAddresses(t *testing.T) {
	// An address whose fine granule collides but whose 16 MiB region was
	// never marked must be rejected: the two-granularity AND reduces false
	// positives. Construct a colliding fine granule by brute force.
	f := New()
	marked := addr.VA(0x1000_0000)
	f.MarkSynonym(marked)
	// Find a VA in a different coarse region whose fine granule hashes to
	// the same fine-filter bits.
	finder := New()
	finder.MarkSynonym(marked)
	var collision addr.VA
	found := false
	for g := uint64(0); g < 1<<22 && !found; g++ {
		va := addr.VA(g << FineBits)
		if uint64(va)>>CoarseBits == uint64(marked)>>CoarseBits {
			continue
		}
		if finder.fineContains(va) {
			collision = va
			found = true
		}
	}
	if !found {
		t.Skip("no fine collision found in search range")
	}
	if f.IsCandidate(collision) {
		t.Errorf("coarse filter failed to screen %#x", uint64(collision))
	}
}

// fineContains exposes the fine filter for the screening test.
func (f *Filter) fineContains(va addr.VA) bool {
	return f.fine.Contains(uint64(va) >> FineBits)
}

func TestMarkRangeCoversAllPages(t *testing.T) {
	f := New()
	start := addr.VA(0x4000_0000)
	f.MarkSynonymRange(start, 64*addr.PageSize)
	for off := uint64(0); off < 64*addr.PageSize; off += addr.PageSize {
		if !f.IsCandidate(start + addr.VA(off)) {
			t.Fatalf("page at offset %#x not covered", off)
		}
	}
	if f.Inserts.Value() != 64 {
		t.Errorf("inserts = %d, want 64", f.Inserts.Value())
	}
}

func TestClearAndRebuild(t *testing.T) {
	f := New()
	f.MarkSynonymRange(0x1000_0000, 16*addr.PageSize)
	f.MarkSynonymRange(0x2000_0000, 16*addr.PageSize)
	f.Clear()
	if f.IsCandidate(0x1000_0000) {
		t.Fatal("cleared filter still hits")
	}
	// Rebuild with only the second range live (first went private).
	f.Rebuild([]Range{{Start: 0x2000_0000, Length: 16 * addr.PageSize}})
	if f.IsCandidate(0x1000_0000) {
		t.Error("rebuilt filter kept stale range")
	}
	if !f.IsCandidate(0x2000_0000) {
		t.Error("rebuilt filter lost live range")
	}
}

func TestOccupancyGrows(t *testing.T) {
	f := New()
	fine0, coarse0 := f.Occupancy()
	if fine0 != 0 || coarse0 != 0 {
		t.Fatal("new filter not empty")
	}
	f.MarkSynonym(0x5000_0000)
	fine1, coarse1 := f.Occupancy()
	if fine1 <= 0 || coarse1 <= 0 {
		t.Error("occupancy did not grow")
	}
}

func TestLoadCopiesContents(t *testing.T) {
	master := New()
	master.MarkSynonym(0x7000_0000)
	perCore := New()
	perCore.Load(master)
	if !perCore.IsCandidate(0x7000_0000) {
		t.Fatal("loaded filter missing contents")
	}
	// Master updates after the load are not visible until reloaded —
	// that is why the OS uses shootdowns on status changes.
	master.MarkSynonym(0x9990_0000)
	if perCore.IsCandidate(0x9990_0000) && !master.IsCandidate(0x7000_0000) {
		t.Error("per-core filter aliases master")
	}
}

func TestPairEitherFilterFlags(t *testing.T) {
	guest := New()
	host := New()
	pair := NewPair(guest, host)
	gShared := addr.VA(0x1111_0000)
	hShared := addr.VA(0x2222_0000)
	guest.MarkSynonym(gShared) // OS-induced synonym
	host.MarkSynonym(hShared)  // hypervisor-induced synonym (indexed by gVA)
	if !pair.IsCandidate(gShared) {
		t.Error("guest-marked page not flagged")
	}
	if !pair.IsCandidate(hShared) {
		t.Error("host-marked page not flagged")
	}
	if pair.IsCandidate(0x7777_0000) {
		t.Error("unmarked page flagged by pair")
	}
}

// markPages is the per-page reference for MarkSynonymRange: one
// MarkSynonym for every page at va, va+4 KiB, ... below va+length.
func markPages(f *Filter, va addr.VA, length uint64) {
	for off := uint64(0); off < length; off += addr.PageSize {
		f.MarkSynonym(va + addr.VA(off))
	}
}

// filterDiff describes how got differs from want in both Bloom filters'
// words, their occupancy and Inserts; it returns "" when they agree.
func filterDiff(got, want *Filter) string {
	if got.fine.Words() != want.fine.Words() {
		return "fine filter words differ"
	}
	if got.coarse.Words() != want.coarse.Words() {
		return "coarse filter words differ"
	}
	gf, gc := got.Occupancy()
	wf, wc := want.Occupancy()
	if gf != wf || gc != wc {
		return fmt.Sprintf("occupancy %v/%v, want %v/%v", gf, gc, wf, wc)
	}
	if g, w := got.Inserts.Value(), want.Inserts.Value(); g != w {
		return fmt.Sprintf("inserts %d, want %d", g, w)
	}
	return ""
}

// rangeCases are the shapes a granule-at-a-time MarkSynonymRange is most
// likely to get wrong.
var rangeCases = []struct {
	name   string
	va     addr.VA
	length uint64
}{
	{"zero length", 0x7000_0000_0000, 0},
	{"one byte", 0x7000_0000_0000, 1},
	{"one byte mid-page", 0x7000_0000_5123, 1},
	// Pages 3..11 of a granule pair: the last page sits mid-way through
	// the second 32 KiB granule.
	{"mid-granule to mid-granule", 0x7000_0000_3000, 9 * addr.PageSize},
	{"unaligned start, partial last page", 0x7000_0000_3800, 5*addr.PageSize + 1},
	{"ends one byte into a granule", 0x7000_0000_1000, 7*addr.PageSize + 1},
	{"crosses 16 MiB boundary", 0x7000_00ff_c000, 40 * addr.PageSize},
	{"crosses 16 MiB boundary unaligned", 0x7000_00ff_f7c0, 3 * addr.PageSize},
	{"postgres share", 0x7000_0000_0000, 128 << 20},
}

func TestMarkSynonymRangeMatchesPerPage(t *testing.T) {
	for _, tc := range rangeCases {
		got, want := New(), New()
		got.MarkSynonymRange(tc.va, tc.length)
		markPages(want, tc.va, tc.length)
		if d := filterDiff(got, want); d != "" {
			t.Errorf("%s: %s", tc.name, d)
		}
	}
}

func TestRebuildMatchesPerPage(t *testing.T) {
	var all []Range
	for _, tc := range rangeCases {
		all = append(all, Range{Start: tc.va, Length: tc.length})
	}
	sets := map[string][]Range{"all cases": all}
	for i, tc := range rangeCases {
		sets[tc.name] = all[i : i+1]
	}
	for name, ranges := range sets {
		got, want := New(), New()
		// Stale bits that the rebuild must drop, plus earlier inserts
		// that it keeps counting.
		got.MarkSynonymRange(0x1000_0000, 16*addr.PageSize)
		markPages(want, 0x1000_0000, 16*addr.PageSize)
		got.Rebuild(ranges)
		want.Clear()
		for _, r := range ranges {
			markPages(want, r.Start, r.Length)
		}
		if d := filterDiff(got, want); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
}

func TestMarkSynonymRangeMatchesPerPageProperty(t *testing.T) {
	prop := func(start uint64, length uint32) bool {
		va := addr.VA(start % (1 << 47))
		n := uint64(length) % (40 << 20)
		got, want := New(), New()
		got.MarkSynonymRange(va, n)
		markPages(want, va, n)
		return filterDiff(got, want) == ""
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
