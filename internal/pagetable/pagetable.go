// Package pagetable implements x86-64-style four-level page tables stored
// in simulated physical frames. Hardware page walks therefore issue real
// memory accesses through the cache hierarchy, which is what lets large
// on-chip caches absorb translation traffic — the effect the paper's
// delayed translation exploits.
//
// Page table entries carry a sharing (synonym) bit, which the paper adds to
// mark pages whose state the synonym filter must report (Section III-A,
// footnote 2): the TLB fill uses it to distinguish true synonyms from
// filter false positives.
package pagetable

import (
	"encoding/binary"
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

// indexAt returns the 9-bit table index for the given level
// (level 3 = PML4 ... level 0 = PT).
func indexAt(va addr.VA, level int) uint64 {
	return uint64(va) >> (addr.PageBits + 9*level) & 0x1ff
}

// Tables is one address space's four-level page table.
type Tables struct {
	alloc *mem.Allocator
	store *mem.Store
	root  addr.PA
	// tableFrames lists every frame holding table pages, for Destroy.
	tableFrames []addr.PA
	// FramesUsed counts frames consumed by table pages.
	FramesUsed int
	// Mapped counts present leaf mappings.
	Mapped int
}

// New allocates an empty table hierarchy (one root frame).
// It returns an error when physical memory is exhausted.
func New(alloc *mem.Allocator, store *mem.Store) (*Tables, error) {
	root, ok := alloc.AllocFrame()
	if !ok {
		return nil, fmt.Errorf("pagetable: out of physical memory for root")
	}
	store.ZeroPage(root)
	return &Tables{
		alloc: alloc, store: store, root: root,
		tableFrames: []addr.PA{root}, FramesUsed: 1,
	}, nil
}

// Destroy releases every table frame back to the allocator. The Tables
// value must not be used afterwards. It does not free data frames; the OS
// owns those.
func (t *Tables) Destroy() {
	for _, f := range t.tableFrames {
		t.store.ZeroPage(f)
		t.alloc.Free(f, 1)
	}
	t.tableFrames = nil
	t.FramesUsed = 0
	t.Mapped = 0
}

// Root returns the physical address of the top-level table (the CR3 value).
func (t *Tables) Root() addr.PA { return t.root }

// entryAddr returns the physical address of the PTE slot for va at level,
// given the table page's physical address.
func entryAddr(table addr.PA, va addr.VA, level int) addr.PA {
	return table + addr.PA(indexAt(va, level)*8)
}

// tableAt descends from the root to the table page holding va's entries at
// level stop, allocating missing intermediate tables on the way. A 4 KiB
// descent (stop 0) refuses to pass through a 2 MiB leaf.
func (t *Tables) tableAt(va addr.VA, stop int) (addr.PA, error) {
	table := t.root
	for level := Levels - 1; level > stop; level-- {
		slot := entryAddr(table, va, level)
		v := t.store.Read64(slot)
		if level == 1 && v&ptePresent != 0 && v&pteHuge != 0 {
			return 0, fmt.Errorf("pagetable: 4 KiB map inside existing 2 MiB mapping at %#x", uint64(va))
		}
		if v&ptePresent == 0 {
			frame, ok := t.alloc.AllocFrame()
			if !ok {
				return 0, fmt.Errorf("pagetable: out of physical memory at level %d", level)
			}
			t.store.ZeroPage(frame)
			t.tableFrames = append(t.tableFrames, frame)
			t.FramesUsed++
			v = ptePresent | uint64(frame)&^uint64(addr.PageSize-1)
			t.store.Write64(slot, v)
		}
		table = nextTable(v)
	}
	return table, nil
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
// and writes each leaf table's run through its page from one encoded
// entry: entry i is the first plus i frames, which cannot carry out of
// the frame field because physical frame numbers have PABits-PageBits
// bits.
func (t *Tables) MapRange(va addr.VA, pa addr.PA, pages uint64, perm addr.Perm, shared bool) error {
	pte := PTE{Present: true, Frame: pa.Frame(), Perm: perm, Shared: shared}.Encode()
	for pages > 0 {
		// The canonical boundary is 2 MiB aligned, so one check covers
		// every page that shares this leaf table.
		if !va.Canonical() {
			return fmt.Errorf("pagetable: non-canonical VA %#x", uint64(va))
		}
		table, err := t.tableAt(va, 0)
		if err != nil {
			return err
		}
		leaf := t.store.Page(table)
		first := indexAt(va, 0)
		n := min(pages, 512-first)
		for off := first * 8; off < (first+n)*8; off += 8 {
			slot := leaf[off : off+8]
			if binary.LittleEndian.Uint64(slot)&ptePresent == 0 {
				t.Mapped++
			}
			binary.LittleEndian.PutUint64(slot, pte)
			pte += 1 << pteFrameLo
		}
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
	table, err := t.tableAt(va, 1)
	if err != nil {
		return err
	}
	slot := entryAddr(table, va, 1)
	if v := t.store.Read64(slot); v&ptePresent != 0 {
		if v&pteHuge == 0 {
			return fmt.Errorf("pagetable: 2 MiB map over existing 4 KiB mappings at %#x", uint64(va))
		}
	} else {
		t.Mapped++
	}
	t.store.Write64(slot, PTE{Present: true, Frame: pa.Frame(), Perm: perm, Shared: shared, Huge: true}.Encode())
	return nil
}

// Unmap removes the leaf translation for va, returning whether one existed.
// Intermediate tables are not reclaimed (matching common OS behaviour).
func (t *Tables) Unmap(va addr.VA) bool {
	slot, _, ok := t.entrySlot(va)
	if !ok || t.store.Read64(slot)&ptePresent == 0 {
		return false
	}
	t.store.Write64(slot, 0)
	t.Mapped--
	return true
}

// nextTable extracts the next-level table address from an intermediate
// entry.
func nextTable(v uint64) addr.PA {
	return addr.PA(v &^ uint64(ptePresent) &^ uint64(pteShared) &^ (3 << ptePermLo))
}

// entrySlot walks to va's leaf slot — the level-0 entry, or a level-1
// entry whose PS bit maps a 2 MiB page — without allocating.
func (t *Tables) entrySlot(va addr.VA) (slot addr.PA, huge, ok bool) {
	table := t.root
	for level := Levels - 1; level > 0; level-- {
		s := entryAddr(table, va, level)
		v := t.store.Read64(s)
		if v&ptePresent == 0 {
			return 0, false, false
		}
		if level == 1 && v&pteHuge != 0 {
			return s, true, true
		}
		table = nextTable(v)
	}
	return entryAddr(table, va, 0), false, true
}

// Lookup performs a functional (untimed) walk.
func (t *Tables) Lookup(va addr.VA) (PTE, bool) {
	slot, _, ok := t.entrySlot(va)
	if !ok {
		return PTE{}, false
	}
	pte := DecodePTE(t.store.Read64(slot))
	return pte, pte.Present
}

// SetShared flips the sharing (synonym) bit of an existing mapping,
// returning false if the page is unmapped.
func (t *Tables) SetShared(va addr.VA, shared bool) bool {
	slot, _, ok := t.entrySlot(va)
	if !ok {
		return false
	}
	v := t.store.Read64(slot)
	if v&ptePresent == 0 {
		return false
	}
	pte := DecodePTE(v)
	pte.Shared = shared
	t.store.Write64(slot, pte.Encode())
	return true
}

// SetPerm updates the permission of an existing mapping, returning false if
// the page is unmapped.
func (t *Tables) SetPerm(va addr.VA, perm addr.Perm) bool {
	slot, _, ok := t.entrySlot(va)
	if !ok {
		return false
	}
	v := t.store.Read64(slot)
	if v&ptePresent == 0 {
		return false
	}
	pte := DecodePTE(v)
	pte.Perm = perm
	t.store.Write64(slot, pte.Encode())
	return true
}

// WalkPath returns the physical addresses of the table entries a hardware
// walker reads for va (root to leaf) in path[:n], the decoded leaf, and
// whether the walk reached a present leaf. A timed walker issues one memory
// access per address in path[:n]. The path is returned by value so a walk
// allocates nothing.
func (t *Tables) WalkPath(va addr.VA) (path [Levels]addr.PA, n int, pte PTE, ok bool) {
	table := t.root
	for level := Levels - 1; level >= 0; level-- {
		slot := entryAddr(table, va, level)
		path[n] = slot
		n++
		v := t.store.Read64(slot)
		if v&ptePresent == 0 {
			return path, n, PTE{}, false
		}
		if level == 0 || (level == 1 && v&pteHuge != 0) {
			return path, n, DecodePTE(v), true
		}
		table = nextTable(v)
	}
	return path, n, PTE{}, false
}

// Translate is a convenience functional translation of a full address.
func (t *Tables) Translate(va addr.VA) (addr.PA, bool) {
	pte, ok := t.Lookup(va)
	if !ok {
		return 0, false
	}
	if pte.Huge {
		off := uint64(va) & (addr.HugePageSize - 1)
		return addr.FrameToPA(pte.Frame) + addr.PA(off), true
	}
	return addr.FrameToPA(pte.Frame) + addr.PA(va.PageOffset()), true
}
