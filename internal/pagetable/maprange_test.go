package pagetable

import (
	"fmt"
	"runtime"
	"testing"

	"hybridvc/internal/addr"
	"hybridvc/internal/mem"
)

// tableState is everything MapRange must leave exactly as mapping page by
// page would: the table frames in allocation order, every entry of every
// table, and the counters.
type tableState struct {
	frames     []addr.PA
	words      [][entries]uint64
	mapped     int
	framesUsed int
	allocated  uint64
}

// nodesByFrame finds every table's node by walking the tree from the root,
// keyed by the frame its parent's entry points to.
func nodesByFrame(tbl *Tables) map[addr.PA]*node {
	nodes := map[addr.PA]*node{}
	var visit func(frame addr.PA, n *node)
	visit = func(frame addr.PA, n *node) {
		nodes[frame] = n
		if n.kids == nil {
			return
		}
		for i, kid := range n.kids {
			if kid != nil {
				visit(nextTable(n.entry(uint64(i))), kid)
			}
		}
	}
	visit(tbl.rootPA, tbl.root)
	return nodes
}

// snapshot reads every entry of every table, in allocation order, through
// the nodes. A table frame the tree does not reach reads as all ones, so
// it never matches a reachable one.
func snapshot(tbl *Tables) tableState {
	s := tableState{
		frames:     append([]addr.PA(nil), tbl.tableFrames...),
		mapped:     tbl.Mapped,
		framesUsed: tbl.FramesUsed,
		allocated:  tbl.alloc.AllocatedFrames(),
	}
	nodes := nodesByFrame(tbl)
	for _, f := range tbl.tableFrames {
		var w [entries]uint64
		n := nodes[f]
		for i := range w {
			w[i] = ^uint64(0)
			if n != nil {
				w[i] = n.entry(uint64(i))
			}
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

// premap is a mapping installed on both twins before the range under
// test: pages 4 KiB pages from va (one when pages is 0), or one 2 MiB page.
type premap struct {
	va, pa addr.PA
	pages  uint64
	perm   addr.Perm
	shared bool
	huge   bool
}

// mapPage is the per-page reference MapRange is checked against. Map
// itself delegates to MapRange, so the reference keeps its own leaf write:
// one descent per page and one read and write of the leaf's materialized
// word, sharing only tableAt with the code under test.
func mapPage(t *Tables, va addr.VA, pa addr.PA, perm addr.Perm, shared bool) error {
	if !va.Canonical() {
		return fmt.Errorf("pagetable: non-canonical VA %#x", uint64(va))
	}
	leaf, err := t.tableAt(va, 0)
	if err != nil {
		return err
	}
	w, i := leaf.words(), indexAt(va, 0)
	if w[i]&ptePresent == 0 {
		t.Mapped++
	}
	w[i] = PTE{Present: true, Frame: pa.Frame(), Perm: perm, Shared: shared}.Encode()
	return nil
}

// checkMapRangeMatchesMap builds twin tables over identical physical
// memories, applies the same premaps to both, then maps the range with one
// MapRange on one twin and page by page with mapPage on the other, and
// requires the same error and the same final state.
func checkMapRangeMatchesMap(t *testing.T, physFrames uint64, pre []premap, va addr.VA, pa addr.PA, pages uint64, shared bool) {
	t.Helper()
	twin := func() *Tables {
		tbl, err := New(mem.NewAllocator(physFrames * addr.PageSize))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pre {
			if p.huge {
				tbl.MapHuge(addr.VA(p.va), p.pa, p.perm, p.shared)
			} else {
				tbl.MapRange(addr.VA(p.va), p.pa, max(p.pages, 1), p.perm, p.shared)
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
		pa   = 0x40_0000           // the range's first frame, unless a case sets one
		page = addr.PageSize
		rw   = addr.PermRW
		ro   = addr.PermRO // the range's permission
	)
	cases := []struct {
		name       string
		physFrames uint64
		pre        []premap
		va         addr.VA
		pa         addr.PA
		pages      uint64
	}{
		{name: "single page", physFrames: 64, va: 0x5000, pages: 1},
		{name: "within one leaf table", physFrames: 64, va: 0x1000, pages: 100},
		{name: "whole leaf table", physFrames: 64, va: leaf, pages: 512},
		{name: "crosses leaf tables", physFrames: 64, va: leaf - 3*page, pages: 1200},
		{name: "crosses a PD boundary", physFrames: 64, va: pd - 10*page, pages: 700},
		{name: "crosses a PDPT boundary", physFrames: 64, va: pdpt - 600*page, pages: 1500},
		{name: "unaligned addresses", physFrames: 64, va: leaf - 0x123, pages: 5},
		{name: "zero pages", physFrames: 64, va: 0x1000, pages: 0},
		{name: "over existing mappings", physFrames: 64,
			pre: []premap{{va: 0x3000, pa: 0x9000, perm: rw}, {va: leaf + 0x1000, pa: 0xa000, perm: rw}},
			va:  0x1000, pages: 600},
		{name: "into a huge mapping", physFrames: 64,
			pre: []premap{{va: 2 * leaf, pa: 4 * leaf, perm: rw, huge: true}},
			va:  leaf + 500*page, pages: 40},
		{name: "past the canonical boundary", physFrames: 64, va: addr.VA(1)<<addr.VABits - 5*page, pages: 9},
		{name: "out of memory at the root's first child", physFrames: 1, va: 0x1000, pages: 4},
		{name: "out of memory at a leaf table", physFrames: 4, va: leaf - 2*page, pages: 8},
		{name: "out of memory across a PD boundary", physFrames: 6, va: pd - 2*page, pages: 2000},

		// A leaf table is held as a run until a write departs from it. The
		// range runs once unshared and once shared, so a premapped run
		// that is unshared (or shared) is the range's next entry in one
		// pass and differs only in the shared bit in the other.
		{name: "grows a run", physFrames: 64,
			pre: []premap{{va: 0x1000, pa: pa - 3*page, pages: 3, perm: ro}},
			va:  0x4000, pages: 20},
		{name: "grows a shared run", physFrames: 64,
			pre: []premap{{va: 0x1000, pa: pa - 3*page, pages: 3, perm: ro, shared: true}},
			va:  0x4000, pages: 20},
		{name: "grows a run into the next leaf table", physFrames: 64,
			pre: []premap{{va: leaf - 8*page, pa: pa - 8*page, pages: 3, perm: ro}},
			va:  leaf - 5*page, pages: 600},
		{name: "grows a run to the end of its leaf table", physFrames: 64,
			pre: []premap{{va: 0, pa: pa - 300*page, pages: 300, perm: ro}},
			va:  300 * page, pages: 212},
		{name: "starts at the run's end with another frame", physFrames: 64,
			pre: []premap{{va: 0x1000, pa: pa - 4*page, pages: 3, perm: ro}},
			va:  0x4000, pages: 20},
		{name: "starts at the run's end with another permission", physFrames: 64,
			pre: []premap{{va: 0x1000, pa: pa - 3*page, pages: 3, perm: rw}},
			va:  0x4000, pages: 20},
		{name: "starts one page past the run's end", physFrames: 64,
			pre: []premap{{va: 0x1000, pa: pa - 4*page, pages: 3, perm: ro}},
			va:  0x5000, pages: 20},
		{name: "starts inside a run", physFrames: 64,
			pre: []premap{{va: 0x1000, pa: pa - 0x1000, pages: 10, perm: ro}},
			va:  0x4000, pages: 3},
		{name: "starts inside a run and passes its end", physFrames: 64,
			pre: []premap{{va: 0x1000, pa: pa - 0x1000, pages: 10, perm: ro}},
			va:  0x4000, pages: 30},
		{name: "ends just before a run", physFrames: 64,
			pre: []premap{{va: 0x6000, pa: pa + 5*page, pages: 4, perm: ro}},
			va:  0x1000, pages: 5},
		{name: "starts before a run and covers it", physFrames: 64,
			pre: []premap{{va: 0x6000, pa: pa + 5*page, pages: 4, perm: ro}},
			va:  0x1000, pages: 40},
		{name: "remaps an identical run", physFrames: 64,
			pre: []premap{{va: 0x1000, pa: pa, pages: 100, perm: ro}},
			va:  0x1000, pages: 100},
		{name: "remaps a run with other frames", physFrames: 64,
			pre: []premap{{va: 0x1000, pa: pa + 7*page, pages: 100, perm: ro}},
			va:  0x1000, pages: 100},
		{name: "extends a materialized leaf", physFrames: 64,
			pre: []premap{
				{va: 0x1000, pa: pa - 3*page, pages: 3, perm: ro},
				{va: 0x40000, pa: 0x9000, perm: rw},
			},
			va: 0x4000, pages: 20},
		{name: "grows a run over a huge page's neighbour", physFrames: 64,
			pre: []premap{
				{va: 2 * leaf, pa: 4 * leaf, perm: rw, huge: true},
				{va: leaf + 500*page, pa: pa - 2*page, pages: 2, perm: ro},
			},
			va: leaf + 502*page, pages: 40},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			start := c.pa
			if start == 0 {
				start = pa
			}
			for _, shared := range []bool{false, true} {
				checkMapRangeMatchesMap(t, c.physFrames, c.pre, c.va, start, c.pages, shared)
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
		pre := []premap{{va: addr.PA(preVA&(1<<addr.VABits-1)) &^ (addr.HugePageSize - 1), pa: 0x20_0000, perm: addr.PermRW, huge: preHuge}}
		checkMapRangeMatchesMap(t, uint64(physFrames)+1, pre, va, pa, uint64(pages%2048), preVA&1 != 0)
	})
}

// materializeLeaves expands every leaf table held as its run into words,
// as if runs did not exist.
func materializeLeaves(tbl *Tables) {
	for _, n := range nodesByFrame(tbl) {
		if n.kids == nil {
			n.words()
		}
	}
}

// FuzzLeafRunsMatchWords maps inside a window of four leaf tables, two on
// each side of a PD boundary.
const (
	leafWindowBase  = addr.VA(1<<30 - 2*addr.HugePageSize)
	leafWindowPages = 4 * entries
)

// applyLeafOp decodes one operation from op (6 bytes) and applies it to
// tbl, returning its result and the window pages it may have changed.
func applyLeafOp(tbl *Tables, op []byte) (result string, lo, hi uint64) {
	page := (uint64(op[1])<<8 | uint64(op[2])) % leafWindowPages
	va := leafWindowBase + addr.VA(page*addr.PageSize)
	// Page p maps frame p plus a small offset, so ranges with the same
	// offset continue each other's runs.
	pa := addr.FrameToPA(page + uint64(op[4]%4))
	perm, shared := addr.PermRW, op[5]&2 != 0
	if op[5]&1 != 0 {
		perm = addr.PermRO
	}
	switch op[0] % 6 {
	case 0:
		pages := uint64(op[5]>>2&3)<<8 | uint64(op[3])
		return fmt.Sprint(tbl.MapRange(va, pa, pages, perm, shared)), page, page + pages
	case 1:
		return fmt.Sprint(tbl.Map(va, pa, perm, shared)), page, page + 1
	case 2:
		huge := page &^ (entries - 1)
		err := tbl.MapHuge(leafWindowBase+addr.VA(huge*addr.PageSize), addr.FrameToPA(uint64(op[4])*entries), perm, shared)
		return fmt.Sprint(err), huge, huge + entries
	case 3:
		return fmt.Sprint(tbl.Unmap(va)), page, page + 1
	case 4:
		return fmt.Sprint(tbl.SetPerm(va, perm)), page, page + 1
	default:
		return fmt.Sprint(tbl.SetShared(va, shared)), page, page + 1
	}
}

// sameLeafState compares two tables' counters, allocators and, for the
// window pages [lo, hi) plus one page on each side, Lookup and WalkPath.
func sameLeafState(runs, words *Tables, lo, hi uint64) string {
	switch {
	case runs.Mapped != words.Mapped:
		return fmt.Sprintf("Mapped %d, materialized twin %d", runs.Mapped, words.Mapped)
	case runs.FramesUsed != words.FramesUsed:
		return fmt.Sprintf("FramesUsed %d, materialized twin %d", runs.FramesUsed, words.FramesUsed)
	case runs.alloc.AllocatedFrames() != words.alloc.AllocatedFrames(),
		runs.alloc.NumFreeExtents() != words.alloc.NumFreeExtents(),
		runs.alloc.LargestFreeExtent() != words.alloc.LargestFreeExtent():
		return "allocator state differs"
	}
	if lo > 0 {
		lo--
	}
	for p := lo; p <= hi && p < leafWindowPages; p++ {
		va := leafWindowBase + addr.VA(p*addr.PageSize)
		pte, ok := runs.Lookup(va)
		wpte, wok := words.Lookup(va)
		if pte != wpte || ok != wok {
			return fmt.Sprintf("Lookup(%#x) = %+v %v, materialized twin %+v %v", uint64(va), pte, ok, wpte, wok)
		}
		path, n, pte, ok := runs.WalkPath(va)
		wpath, wn, wpte, wok := words.WalkPath(va)
		if path != wpath || n != wn || pte != wpte || ok != wok {
			return fmt.Sprintf("WalkPath(%#x) = %x %d %+v %v, materialized twin %x %d %+v %v",
				uint64(va), path, n, pte, ok, wpath, wn, wpte, wok)
		}
	}
	return ""
}

// FuzzLeafRunsMatchWords applies a random sequence of MapRange, Map,
// MapHuge, Unmap, SetPerm and SetShared calls to a table and to a twin
// whose leaves are materialized after every operation, and requires the
// same results, counters, allocator state, lookups and walks throughout.
func FuzzLeafRunsMatchWords(f *testing.F) {
	// Each operation is 6 bytes: kind, page (2 bytes), pages, frame
	// offset, flags (bit 0 read-only, bit 1 shared, bits 2-3 pages<<8).
	op := func(kind byte, page uint16, pages, off, flags byte) []byte {
		return []byte{kind, byte(page >> 8), byte(page), pages, off, flags}
	}
	seq := func(ops ...[]byte) []byte {
		var b []byte
		for _, o := range ops {
			b = append(b, o...)
		}
		return b
	}
	f.Add(uint8(63), seq(op(0, 1, 3, 0, 0), op(0, 4, 20, 0, 0), op(0, 24, 8, 1, 0)))
	f.Add(uint8(63), seq(op(0, 1, 3, 0, 0), op(0, 4, 20, 0, 1), op(0, 24, 8, 0, 2)))
	f.Add(uint8(63), seq(op(0, 10, 100, 0, 0), op(4, 40, 0, 0, 1), op(4, 41, 0, 0, 0)))
	f.Add(uint8(63), seq(op(0, 10, 100, 0, 0), op(5, 50, 0, 0, 2), op(0, 110, 5, 0, 0)))
	f.Add(uint8(63), seq(op(0, 10, 100, 0, 0), op(3, 60, 0, 0, 0), op(3, 60, 0, 0, 0), op(1, 60, 0, 0, 0)))
	f.Add(uint8(63), seq(op(0, 10, 100, 0, 0), op(0, 10, 100, 0, 0), op(0, 50, 10, 2, 0)))
	f.Add(uint8(63), seq(op(0, 1000, 255, 0, 4), op(2, 1600, 0, 9, 0), op(1, 1536, 0, 0, 0), op(3, 1700, 0, 0, 0)))
	f.Add(uint8(3), seq(op(0, 500, 255, 0, 12), op(1, 1500, 0, 0, 0)))
	f.Fuzz(func(t *testing.T, physFrames uint8, ops []byte) {
		// Memories of 1 to 64 frames, small enough to run out mid-range.
		frames := uint64(physFrames)%64 + 1
		runs, err := New(mem.NewAllocator(frames * addr.PageSize))
		if err != nil {
			t.Fatal(err)
		}
		words, _ := New(mem.NewAllocator(frames * addr.PageSize))
		for step := 0; len(ops) >= 6 && step < 64; step, ops = step+1, ops[6:] {
			got, lo, hi := applyLeafOp(runs, ops)
			want, _, _ := applyLeafOp(words, ops)
			materializeLeaves(words)
			if got != want {
				t.Fatalf("step %d, op %v: result %s, materialized twin %s", step, ops[:6], got, want)
			}
			if d := sameLeafState(runs, words, lo, hi); d != "" {
				t.Fatalf("step %d, op %v: %s", step, ops[:6], d)
			}
		}
		if d := sameLeafState(runs, words, 0, leafWindowPages); d != "" {
			t.Fatalf("after the sequence: %s", d)
		}
	})
}

// TestMapRangeGiBAllocatesLittle maps 1 GiB contiguously, as gups's eager
// allocation does, and requires under 64 KiB of host allocation: its 512
// leaf tables stay runs instead of 4 KiB of words each.
func TestMapRangeGiBAllocatesLittle(t *testing.T) {
	const gib = 1 << 30
	var least uint64 = 1 << 62
	for range 3 {
		tbl, err := New(mem.NewAllocator(64 << 20))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := tbl.MapRange(gib, 0x4000_0000, gib/addr.PageSize, addr.PermRW, false); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if tbl.Mapped != gib/addr.PageSize {
			t.Fatalf("Mapped = %d, want %d", tbl.Mapped, gib/addr.PageSize)
		}
	}
	t.Logf("MapRange of 1 GiB allocated %d bytes", least)
	if least >= 64<<10 {
		t.Errorf("MapRange of 1 GiB allocated %d bytes, want under 64 KiB", least)
	}
}
