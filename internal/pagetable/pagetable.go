// Package pagetable implements x86-64-style four-level page tables stored
// in simulated physical frames. Hardware page walks therefore issue real
// memory accesses through the cache hierarchy, which is what lets large
// on-chip caches absorb translation traffic — the effect the paper's
// delayed translation exploits.
//
// Every table page owns a simulated frame, and walk paths are the
// physical addresses of entries in those frames. The entries themselves
// are held on the host, one node per table page. Most leaf tables are
// written by MapRange as one contiguous run, the contiguity segment
// translation exploits, so a leaf table is kept as that run (start index,
// end index, first encoded entry) until a write departs from it. Only then
// are its 512 words materialized.
//
// Page table entries carry a sharing (synonym) bit, which the paper adds to
// mark pages whose state the synonym filter must report (Section III-A,
// footnote 2): the TLB fill uses it to distinguish true synonyms from
// filter false positives.
package pagetable

import (
	"fmt"

	"hybridvc/internal/addr"
	"hybridvc/internal/mem"
)

// Levels is the number of page table levels (PML4, PDPT, PD, PT).
const Levels = 4

// PTE bit assignments. The frame number occupies bits 12..51. Permission
// uses the two "available" bits 9-10 and sharing uses bit 58 (a reserved
// bit, per the paper).
const (
	ptePresent   = 1 << 0
	pteHuge      = 1 << 7 // the x86 PS bit: level-1 entry maps 2 MiB
	pteShared    = 1 << 58
	ptePermLo    = 9 // bits 9-10 hold addr.Perm
	pteFrameLo   = addr.PageBits
	pteFrameMask = (uint64(1)<<40 - 1) << pteFrameLo
)

// PTE is a decoded leaf page table entry.
type PTE struct {
	Present bool
	Frame   uint64
	Perm    addr.Perm
	// Shared marks the page as a synonym page: it must be accessed through
	// physical addressing.
	Shared bool
	// Huge marks a 2 MiB mapping (a level-1 entry with the PS bit).
	Huge bool
}

// PA composes the leaf's frame with va's offset in the page (the 2 MiB
// page for a huge leaf).
func (p PTE) PA(va addr.VA) addr.PA {
	if p.Huge {
		return addr.FrameToPA(p.Frame) + addr.PA(uint64(va)&(addr.HugePageSize-1))
	}
	return addr.FrameToPA(p.Frame) + addr.PA(va.PageOffset())
}

// Encode packs the PTE into its 64-bit on-"disk" form.
func (p PTE) Encode() uint64 {
	if !p.Present {
		return 0
	}
	v := uint64(ptePresent)
	v |= (p.Frame << pteFrameLo) & pteFrameMask
	v |= uint64(p.Perm) << ptePermLo
	if p.Shared {
		v |= pteShared
	}
	if p.Huge {
		v |= pteHuge
	}
	return v
}

// DecodePTE unpacks a 64-bit entry.
func DecodePTE(v uint64) PTE {
	if v&ptePresent == 0 {
		return PTE{}
	}
	return PTE{
		Present: true,
		Frame:   (v & pteFrameMask) >> pteFrameLo,
		Perm:    addr.Perm(v >> ptePermLo & 3),
		Shared:  v&pteShared != 0,
		Huge:    v&pteHuge != 0,
	}
}

// entries is the number of entries in one table page.
const entries = addr.PageSize / 8

// indexAt returns the 9-bit table index for the given level
// (level 3 = PML4 ... level 0 = PT).
func indexAt(va addr.VA, level int) uint64 {
	return uint64(va) >> (addr.PageBits + 9*level) & 0x1ff
}

// node holds the entries of one table page. An upper-level table keeps
// its entry words plus, for each entry that points to a table, that
// table's node. A leaf (level-0) table is held as a run while page is
// nil: entries [lo, hi) are first, first plus one frame, and so on, and
// every other entry is zero. An empty run is a table with no entries.
type node struct {
	page   *[entries]uint64 // nil for a leaf held as its run
	kids   *[entries]*node  // next-level tables; nil at level 0
	lo, hi uint32
	first  uint64
}

// newNode returns an empty table page for level.
func newNode(level int) *node {
	if level == 0 {
		return &node{}
	}
	return &node{page: new([entries]uint64), kids: new([entries]*node)}
}

// entry returns the table's word i. Every read of a table entry goes
// through it.
func (n *node) entry(i uint64) uint64 {
	if n.page != nil {
		return n.page[i]
	}
	if i-uint64(n.lo) < uint64(n.hi-n.lo) {
		return n.first + (i-uint64(n.lo))<<pteFrameLo
	}
	return 0
}

// words returns the table's words for writing, first materializing a leaf
// held as its run.
func (n *node) words() *[entries]uint64 {
	if n.page == nil {
		w := new([entries]uint64)
		for i := n.lo; i < n.hi; i++ {
			w[i] = n.first + uint64(i-n.lo)<<pteFrameLo
		}
		n.page = w
	}
	return n.page
}

// fill writes the leaf entries [i, i+count) as pte, pte plus one frame,
// and so on, and returns how many of them were not present before. A leaf
// held as its run stays one when it is empty or when the range starts at
// the run's end with the run's next entry; any other range materializes
// it. No entry can carry out of the frame field, because physical frame
// numbers have PABits-PageBits bits.
func (n *node) fill(i, count, pte uint64) int {
	if n.page == nil {
		switch {
		case n.lo == n.hi:
			n.lo, n.hi, n.first = uint32(i), uint32(i+count), pte
			return int(count)
		case i == uint64(n.hi) && pte == n.first+uint64(n.hi-n.lo)<<pteFrameLo:
			n.hi += uint32(count)
			return int(count)
		}
	}
	w, added := n.words(), 0
	for ; count > 0; count-- {
		if w[i]&ptePresent == 0 {
			added++
		}
		w[i] = pte
		pte += 1 << pteFrameLo
		i++
	}
	return added
}

// Tables is one address space's four-level page table.
type Tables struct {
	alloc  *mem.Allocator
	root   *node
	rootPA addr.PA
	// tableFrames lists every frame holding table pages, in allocation
	// order, for Destroy.
	tableFrames []addr.PA
	// FramesUsed counts frames consumed by table pages.
	FramesUsed int
	// Mapped counts present leaf mappings.
	Mapped int
}

// New allocates an empty table hierarchy (one root frame).
// It returns an error when physical memory is exhausted.
func New(alloc *mem.Allocator) (*Tables, error) {
	root, ok := alloc.AllocFrame()
	if !ok {
		return nil, fmt.Errorf("pagetable: out of physical memory for root")
	}
	return &Tables{
		alloc: alloc, root: newNode(Levels - 1), rootPA: root,
		tableFrames: []addr.PA{root}, FramesUsed: 1,
	}, nil
}

// Destroy releases every table frame back to the allocator. The Tables
// value must not be used afterwards; it reads as empty. It does not free
// data frames; the OS owns those.
func (t *Tables) Destroy() {
	for _, f := range t.tableFrames {
		t.alloc.Free(f, 1)
	}
	t.root = &node{}
	t.tableFrames = nil
	t.FramesUsed = 0
	t.Mapped = 0
}

// Root returns the physical address of the top-level table (the CR3 value).
func (t *Tables) Root() addr.PA { return t.rootPA }

// tableAt descends from the root to the table holding va's entries at
// level stop, allocating missing intermediate tables on the way. A 4 KiB
// descent (stop 0) refuses to pass through a 2 MiB leaf.
func (t *Tables) tableAt(va addr.VA, stop int) (*node, error) {
	n := t.root
	for level := Levels - 1; level > stop; level-- {
		i := indexAt(va, level)
		v := n.entry(i)
		if level == 1 && v&ptePresent != 0 && v&pteHuge != 0 {
			return nil, fmt.Errorf("pagetable: 4 KiB map inside existing 2 MiB mapping at %#x", uint64(va))
		}
		if v&ptePresent == 0 {
			frame, ok := t.alloc.AllocFrame()
			if !ok {
				return nil, fmt.Errorf("pagetable: out of physical memory at level %d", level)
			}
			t.tableFrames = append(t.tableFrames, frame)
			t.FramesUsed++
			n.words()[i] = ptePresent | uint64(frame)&^uint64(addr.PageSize-1)
			n.kids[i] = newNode(level - 1)
		}
		n = n.kids[i]
	}
	return n, nil
}

// Map installs a 4 KiB translation. Intermediate table pages are allocated
// on demand. Remapping an existing VA overwrites the leaf.
func (t *Tables) Map(va addr.VA, pa addr.PA, perm addr.Perm, shared bool) error {
	return t.MapRange(va, pa, 1, perm, shared)
}

// MapRange installs pages consecutive 4 KiB translations, va+i*4KiB ->
// pa+i*4KiB. It leaves exactly the state that calling Map page by page in
// ascending order would: intermediate tables are allocated in the same
// order, and on error the pages before the failing one stay mapped. It
// descends from the root once per leaf table rather than once per page,
// and fills each leaf table's part from one encoded entry.
func (t *Tables) MapRange(va addr.VA, pa addr.PA, pages uint64, perm addr.Perm, shared bool) error {
	pte := PTE{Present: true, Frame: pa.Frame(), Perm: perm, Shared: shared}.Encode()
	for pages > 0 {
		// The canonical boundary is 2 MiB aligned, so one check covers
		// every page that shares this leaf table.
		if !va.Canonical() {
			return fmt.Errorf("pagetable: non-canonical VA %#x", uint64(va))
		}
		leaf, err := t.tableAt(va, 0)
		if err != nil {
			return err
		}
		first := indexAt(va, 0)
		n := min(pages, entries-first)
		t.Mapped += leaf.fill(first, n, pte)
		pte += n << pteFrameLo
		va += addr.VA(n * addr.PageSize)
		pages -= n
	}
	return nil
}

// MapHuge installs a 2 MiB translation at a level-1 entry with the PS
// bit. Both addresses must be 2 MiB aligned.
func (t *Tables) MapHuge(va addr.VA, pa addr.PA, perm addr.Perm, shared bool) error {
	if !va.Canonical() {
		return fmt.Errorf("pagetable: non-canonical VA %#x", uint64(va))
	}
	if uint64(va)%addr.HugePageSize != 0 || uint64(pa)%addr.HugePageSize != 0 {
		return fmt.Errorf("pagetable: MapHuge of unaligned addresses %#x -> %#x",
			uint64(va), uint64(pa))
	}
	pd, err := t.tableAt(va, 1)
	if err != nil {
		return err
	}
	i := indexAt(va, 1)
	if v := pd.entry(i); v&ptePresent != 0 {
		if v&pteHuge == 0 {
			return fmt.Errorf("pagetable: 2 MiB map over existing 4 KiB mappings at %#x", uint64(va))
		}
	} else {
		t.Mapped++
	}
	pd.words()[i] = PTE{Present: true, Frame: pa.Frame(), Perm: perm, Shared: shared, Huge: true}.Encode()
	return nil
}

// Unmap removes the leaf translation for va, returning whether one existed.
// Intermediate tables are not reclaimed (matching common OS behaviour).
func (t *Tables) Unmap(va addr.VA) bool {
	n, i, ok := t.leaf(va)
	if !ok || n.entry(i)&ptePresent == 0 {
		return false
	}
	n.words()[i] = 0
	t.Mapped--
	return true
}

// nextTable extracts the next-level table address from an intermediate
// entry.
func nextTable(v uint64) addr.PA {
	return addr.PA(v &^ uint64(ptePresent) &^ uint64(pteShared) &^ (3 << ptePermLo))
}

// leaf walks to va's leaf entry — entry i of a level-0 table, or of a
// level-1 table whose entry's PS bit maps a 2 MiB page — without
// allocating.
func (t *Tables) leaf(va addr.VA) (n *node, i uint64, ok bool) {
	n = t.root
	for level := Levels - 1; level > 0; level-- {
		i = indexAt(va, level)
		v := n.entry(i)
		if v&ptePresent == 0 {
			return nil, 0, false
		}
		if level == 1 && v&pteHuge != 0 {
			return n, i, true
		}
		n = n.kids[i]
	}
	return n, indexAt(va, 0), true
}

// Lookup performs a functional (untimed) walk.
func (t *Tables) Lookup(va addr.VA) (PTE, bool) {
	n, i, ok := t.leaf(va)
	if !ok {
		return PTE{}, false
	}
	pte := DecodePTE(n.entry(i))
	return pte, pte.Present
}

// update rewrites va's present leaf entry with f, returning false if the
// page is unmapped.
func (t *Tables) update(va addr.VA, f func(*PTE)) bool {
	n, i, ok := t.leaf(va)
	if !ok {
		return false
	}
	pte := DecodePTE(n.entry(i))
	if !pte.Present {
		return false
	}
	f(&pte)
	n.words()[i] = pte.Encode()
	return true
}

// SetShared flips the sharing (synonym) bit of an existing mapping,
// returning false if the page is unmapped.
func (t *Tables) SetShared(va addr.VA, shared bool) bool {
	return t.update(va, func(p *PTE) { p.Shared = shared })
}

// SetPerm updates the permission of an existing mapping, returning false if
// the page is unmapped.
func (t *Tables) SetPerm(va addr.VA, perm addr.Perm) bool {
	return t.update(va, func(p *PTE) { p.Perm = perm })
}

// WalkPath returns the physical addresses of the table entries a hardware
// walker reads for va (root to leaf) in path[:n], the decoded leaf, and
// whether the walk reached a present leaf. A timed walker issues one memory
// access per address in path[:n]. The path is returned by value so a walk
// allocates nothing.
func (t *Tables) WalkPath(va addr.VA) (path [Levels]addr.PA, n int, pte PTE, ok bool) {
	tablePA, table := t.rootPA, t.root
	for level := Levels - 1; level >= 0; level-- {
		i := indexAt(va, level)
		path[n] = tablePA + addr.PA(i*8)
		n++
		v := table.entry(i)
		if v&ptePresent == 0 {
			return path, n, PTE{}, false
		}
		if level == 0 || (level == 1 && v&pteHuge != 0) {
			return path, n, DecodePTE(v), true
		}
		tablePA, table = nextTable(v), table.kids[i]
	}
	return path, n, PTE{}, false
}

// Translate is a convenience functional translation of a full address.
func (t *Tables) Translate(va addr.VA) (addr.PA, bool) {
	pte, ok := t.Lookup(va)
	if !ok {
		return 0, false
	}
	return pte.PA(va), true
}
