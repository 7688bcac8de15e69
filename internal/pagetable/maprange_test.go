package pagetable

import (
	"fmt"
	"testing"

	"hybridvc/internal/addr"
	"hybridvc/internal/mem"
)

// tableState is everything MapRange must leave exactly as mapping page by
// page would: the table frames in allocation order, every word of every table
// page, and the counters.
type tableState struct {
	frames     []addr.PA
	words      [][512]uint64
	mapped     int
	framesUsed int
	allocated  uint64
	backed     int
}

func snapshot(tbl *Tables) tableState {
	s := tableState{
		frames:     append([]addr.PA(nil), tbl.tableFrames...),
		mapped:     tbl.Mapped,
		framesUsed: tbl.FramesUsed,
		allocated:  tbl.alloc.AllocatedFrames(),
		backed:     tbl.store.PagesBacked(),
	}
	for _, f := range tbl.tableFrames {
		var w [512]uint64
		for i := range w {
			w[i] = tbl.store.Read64(f + addr.PA(i*8))
		}
		s.words = append(s.words, w)
	}
	return s
}

func (s tableState) diff(o tableState) string {
	switch {
	case s.mapped != o.mapped:
		return "Mapped differs"
	case s.framesUsed != o.framesUsed:
		return "FramesUsed differs"
	case s.allocated != o.allocated:
		return "allocated frames differ"
	case s.backed != o.backed:
		return "backed store pages differ"
	case len(s.frames) != len(o.frames):
		return "table frame count differs"
	}
	for i := range s.frames {
		if s.frames[i] != o.frames[i] {
			return "table frame order differs"
		}
		if s.words[i] != o.words[i] {
			return "table page contents differ"
		}
	}
	return ""
}

// premap is a mapping installed on both twins before the range under test.
type premap struct {
	va, pa addr.PA
	huge   bool
}

// mapPage is the per-page reference MapRange is checked against. Map
// itself delegates to MapRange, so the reference keeps its own leaf write:
// one descent and one read and write of the leaf word per page, sharing
// only tableAt with the code under test.
func mapPage(t *Tables, va addr.VA, pa addr.PA, perm addr.Perm, shared bool) error {
	if !va.Canonical() {
		return fmt.Errorf("pagetable: non-canonical VA %#x", uint64(va))
	}
	table, err := t.tableAt(va, 0)
	if err != nil {
		return err
	}
	slot := entryAddr(table, va, 0)
	if t.store.Read64(slot)&ptePresent == 0 {
		t.Mapped++
	}
	t.store.Write64(slot, PTE{Present: true, Frame: pa.Frame(), Perm: perm, Shared: shared}.Encode())
	return nil
}

// checkMapRangeMatchesMap builds twin tables over identical physical
// memories, applies the same premaps to both, then maps the range with one
// MapRange on one twin and page by page with mapPage on the other, and
// requires the same error and the same final state.
func checkMapRangeMatchesMap(t *testing.T, physFrames uint64, pre []premap, va addr.VA, pa addr.PA, pages uint64, shared bool) {
	t.Helper()
	twin := func() *Tables {
		tbl, err := New(mem.NewAllocator(physFrames*addr.PageSize), mem.NewStore())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pre {
			if p.huge {
				tbl.MapHuge(addr.VA(p.va), p.pa, addr.PermRW, false)
			} else {
				tbl.Map(addr.VA(p.va), p.pa, addr.PermRW, false)
			}
		}
		return tbl
	}
	ranged, paged := twin(), twin()
	errRange := ranged.MapRange(va, pa, pages, addr.PermRO, shared)
	var errPage error
	for i := uint64(0); i < pages && errPage == nil; i++ {
		errPage = mapPage(paged, va+addr.VA(i*addr.PageSize), pa+addr.PA(i*addr.PageSize), addr.PermRO, shared)
	}
	if (errRange == nil) != (errPage == nil) || (errRange != nil && errRange.Error() != errPage.Error()) {
		t.Fatalf("MapRange(%#x, %#x, %d): error %v, per-page reference: %v", uint64(va), uint64(pa), pages, errRange, errPage)
	}
	if d := snapshot(ranged).diff(snapshot(paged)); d != "" {
		t.Fatalf("MapRange(%#x, %#x, %d): %s from the per-page reference (err %v)", uint64(va), uint64(pa), pages, d, errRange)
	}
}

func TestMapRangeMatchesMap(t *testing.T) {
	const (
		leaf = 512 * addr.PageSize // one leaf table spans 2 MiB
		pd   = 512 * leaf          // one PD spans 1 GiB
		pdpt = 512 * pd            // one PDPT spans 512 GiB
	)
	cases := []struct {
		name       string
		physFrames uint64
		pre        []premap
		va         addr.VA
		pages      uint64
	}{
		{name: "single page", physFrames: 64, va: 0x5000, pages: 1},
		{name: "within one leaf table", physFrames: 64, va: 0x1000, pages: 100},
		{name: "whole leaf table", physFrames: 64, va: leaf, pages: 512},
		{name: "crosses leaf tables", physFrames: 64, va: leaf - 3*addr.PageSize, pages: 1200},
		{name: "crosses a PD boundary", physFrames: 64, va: pd - 10*addr.PageSize, pages: 700},
		{name: "crosses a PDPT boundary", physFrames: 64, va: pdpt - 600*addr.PageSize, pages: 1500},
		{name: "unaligned addresses", physFrames: 64, va: leaf - 0x123, pages: 5},
		{name: "zero pages", physFrames: 64, va: 0x1000, pages: 0},
		{name: "over existing mappings", physFrames: 64,
			pre: []premap{{va: 0x3000, pa: 0x9000}, {va: leaf + 0x1000, pa: 0xa000}},
			va:  0x1000, pages: 600},
		{name: "into a huge mapping", physFrames: 64,
			pre: []premap{{va: 2 * leaf, pa: 4 * leaf, huge: true}},
			va:  leaf + 500*addr.PageSize, pages: 40},
		{name: "past the canonical boundary", physFrames: 64, va: addr.VA(1)<<addr.VABits - 5*addr.PageSize, pages: 9},
		{name: "out of memory at the root's first child", physFrames: 1, va: 0x1000, pages: 4},
		{name: "out of memory at a leaf table", physFrames: 4, va: leaf - 2*addr.PageSize, pages: 8},
		{name: "out of memory across a PD boundary", physFrames: 6, va: pd - 2*addr.PageSize, pages: 2000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, shared := range []bool{false, true} {
				checkMapRangeMatchesMap(t, c.physFrames, c.pre, c.va, 0x40_0000, c.pages, shared)
			}
		})
	}
}

func FuzzMapRangeMatchesMap(f *testing.F) {
	f.Add(uint64(0x1000), uint64(0x40_0000), uint16(100), uint8(64), uint64(0), false)
	f.Add(uint64(1<<30-0x3000), uint64(0x7000), uint16(1500), uint8(64), uint64(1<<30), true)
	f.Add(uint64(1<<21-0x2000), uint64(0), uint16(8), uint8(4), uint64(0), false)
	f.Add(uint64(1<<48-0x5000), uint64(0), uint16(9), uint8(64), uint64(0), false)
	f.Fuzz(func(t *testing.T, rawVA, rawPA uint64, pages uint16, physFrames uint8, preVA uint64, preHuge bool) {
		// Keep ranges near the canonical boundary reachable and memories
		// small enough to run out mid-range.
		va := addr.VA(rawVA & (1<<(addr.VABits+1) - 1))
		pa := addr.PA(rawPA & (1<<addr.PABits - 1))
		pre := []premap{{va: addr.PA(preVA&(1<<addr.VABits-1)) &^ (addr.HugePageSize - 1), pa: 0x20_0000, huge: preHuge}}
		checkMapRangeMatchesMap(t, uint64(physFrames)+1, pre, va, pa, uint64(pages%2048), preVA&1 != 0)
	})
}
