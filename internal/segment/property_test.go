package segment

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hybridvc/internal/addr"
	"hybridvc/internal/mem"
)

// TestManagerMatchesReferenceUnderChurn drives random allocate/free/lookup
// traffic and cross-checks LookupSoft and the hardware tree walk against a
// brute-force reference.
func TestManagerMatchesReferenceUnderChurn(t *testing.T) {
	alloc := mem.NewAllocator(1 << 32)
	m := NewManager(NewNodeArena(alloc))
	asid := addr.MakeASID(0, 1)
	rng := rand.New(rand.NewSource(51))

	type ref struct {
		seg *Segment
	}
	var live []ref

	overlaps := func(base addr.VA, length uint64) bool {
		for _, r := range live {
			s := r.seg
			if base < s.Base+addr.VA(s.Length) && s.Base < base+addr.VA(length) {
				return true
			}
		}
		return false
	}
	refLookup := func(va addr.VA) *Segment {
		for _, r := range live {
			if r.seg.Contains(asid, va) {
				return r.seg
			}
		}
		return nil
	}

	for step := 0; step < 600; step++ {
		switch {
		case len(live) == 0 || rng.Intn(3) != 0:
			frames := uint64(rng.Intn(64) + 1)
			base := addr.VA(rng.Uint64()%(1<<30)) & ^addr.VA(addr.PageSize-1)
			pa, ok := alloc.AllocContiguous(frames)
			if !ok {
				continue
			}
			seg, err := m.Allocate(asid, base, frames*addr.PageSize, pa, addr.PermRW)
			if overlaps(base, frames*addr.PageSize) {
				if err == nil {
					t.Fatalf("step %d: overlap accepted", step)
				}
				alloc.Free(pa, frames)
				continue
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live = append(live, ref{seg})
		default:
			i := rng.Intn(len(live))
			s := live[i].seg
			m.Free(s)
			alloc.Free(s.PABase, s.Pages())
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		// Cross-check a few random addresses.
		for probe := 0; probe < 5; probe++ {
			va := addr.VA(rng.Uint64() % (1 << 30))
			want := refLookup(va)
			got, ok := m.LookupSoft(asid, va)
			if (want != nil) != ok || (ok && got != want) {
				t.Fatalf("step %d: LookupSoft(%#x) = %v,%v want %v", step, uint64(va), got, ok, want)
			}
			id, _ := m.Tree.Lookup(asid, va)
			if want == nil {
				if id != NoID && m.Table.Get(id).Contains(asid, va) {
					t.Fatalf("step %d: tree found a segment for unmapped %#x", step, uint64(va))
				}
			} else if id != want.ID {
				// The tree returns the predecessor; it must be the
				// covering segment when one exists.
				t.Fatalf("step %d: tree ID %d want %d", step, id, want.ID)
			}
		}
	}
}

// TestSegCacheNeverReturnsWrongTranslation: whatever the fill history, a
// SegCache hit must agree with the owning segment.
func TestSegCacheNeverReturnsWrongTranslation(t *testing.T) {
	alloc := mem.NewAllocator(1 << 32)
	m := NewManager(NewNodeArena(alloc))
	asid := addr.MakeASID(0, 1)
	rng := rand.New(rand.NewSource(61))
	// Many small adjacent segments: granules straddle boundaries.
	var segs []*Segment
	va := addr.VA(0)
	for i := 0; i < 64; i++ {
		frames := uint64(rng.Intn(200) + 1)
		pa, _ := alloc.AllocContiguous(frames)
		s, err := m.Allocate(asid, va, frames*addr.PageSize, pa, addr.PermRW)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, s)
		va += addr.VA(frames * addr.PageSize)
	}
	sc := NewSegCache(SegCacheEntries)
	total := uint64(va)
	for step := 0; step < 50000; step++ {
		a := addr.VA(rng.Uint64() % total)
		if seg, ok := sc.Lookup(asid, a); ok {
			want, _ := m.LookupSoft(asid, a)
			if seg != want {
				t.Fatalf("step %d: SC returned %v want %v for %#x", step, seg, want, uint64(a))
			}
		} else {
			want, _ := m.LookupSoft(asid, a)
			sc.Fill(asid, a, want)
		}
	}
}

// TestTouchBitmapMatchesMapModel touches random pages of runs of adjacent
// segments whose page counts are not multiples of 64, checks TouchedPages
// and Utilization against a set-of-pages model, then compacts each run and
// checks that the merged segment carries the union and keeps deduplicating.
func TestTouchBitmapMatchesMapModel(t *testing.T) {
	asid := addr.MakeASID(0, 1)
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		m, alloc := newManager(t)
		n := 2 + rng.Intn(4)
		pages := make([]uint64, n)
		var total uint64
		for i := range pages {
			pages[i] = uint64(rng.Intn(300) + 1)
			if pages[i]%64 == 0 {
				pages[i]++
			}
			total += pages[i]
		}
		pa, _ := alloc.AllocContiguous(total)
		base := addr.VA(rng.Intn(1<<20)) * addr.PageSize
		segs := make([]*Segment, n)
		models := make([]map[uint64]bool, n)
		off := uint64(0)
		for i := range segs {
			s, err := m.Allocate(asid, base+addr.VA(off*addr.PageSize), pages[i]*addr.PageSize,
				pa+addr.PA(off*addr.PageSize), addr.PermRW)
			if err != nil {
				t.Fatal(err)
			}
			segs[i], models[i] = s, map[uint64]bool{}
			off += pages[i]
		}
		touch := func(s *Segment, model map[uint64]bool, touches int) {
			for j := 0; j < touches; j++ {
				va := s.Base + addr.VA(rng.Uint64()%s.Length)
				s.Touch(va)
				model[va.Page()] = true
			}
		}
		for i, s := range segs {
			touch(s, models[i], rng.Intn(int(pages[i])*2))
			if s.TouchedPages() != uint64(len(models[i])) {
				t.Fatalf("trial %d seg %d: TouchedPages = %d, want %d", trial, i, s.TouchedPages(), len(models[i]))
			}
			if want := float64(len(models[i])) / float64(pages[i]); s.Utilization() != want {
				t.Fatalf("trial %d seg %d: Utilization = %v, want %v", trial, i, s.Utilization(), want)
			}
		}
		if merges := m.Compact(asid); merges != n-1 {
			t.Fatalf("trial %d: merges = %d, want %d", trial, merges, n-1)
		}
		union := map[uint64]bool{}
		for _, model := range models {
			for p := range model {
				union[p] = true
			}
		}
		merged := segs[0]
		touch(merged, union, 50)
		if merged.TouchedPages() != uint64(len(union)) {
			t.Fatalf("trial %d: merged TouchedPages = %d, want %d", trial, merged.TouchedPages(), len(union))
		}
		if want := float64(len(union)) / float64(total); merged.Utilization() != want {
			t.Fatalf("trial %d: merged Utilization = %v, want %v", trial, merged.Utilization(), want)
		}
	}
}

// TestKeyOrderingProperty: tree keys order primarily by ASID, then by VA —
// required for predecessor routing to never cross address spaces.
func TestKeyOrderingProperty(t *testing.T) {
	f := func(a1, a2 uint16, v1, v2 uint64) bool {
		s1 := addr.ASID(a1)
		s2 := addr.ASID(a2)
		va1 := addr.VA(v1 % (1 << addr.VABits))
		va2 := addr.VA(v2 % (1 << addr.VABits))
		k1, k2 := MakeKey(s1, va1), MakeKey(s2, va2)
		switch {
		case s1 < s2:
			return k1 < k2
		case s1 > s2:
			return k1 > k2
		case va1 < va2:
			return k1 < k2
		case va1 > va2:
			return k1 > k2
		default:
			return k1 == k2
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
