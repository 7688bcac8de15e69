// Package segment implements the paper's scalable delayed translation
// (Section IV): variable-length segments mapping contiguous virtual ranges
// to contiguous physical ranges, a system-wide 2048-entry segment table, an
// OS-maintained B-tree index over ASID+VA (the index tree) materialized in
// physical memory, a hardware index cache for tree nodes, and a small
// 2 MiB-granularity segment cache (SC) that short-circuits the walk.
package segment

import (
	"fmt"
	"math/bits"
	"sort"

	"hybridvc/internal/addr"
)

// TableCapacity is the paper's system-wide segment count (2048 entries,
// ~48 KiB of base/offset/limit state).
const TableCapacity = 2048

// ID names a segment table slot.
type ID int32

// NoID marks "no segment".
const NoID ID = -1

// Key is the index tree search key: ASID concatenated with the 48-bit VA.
type Key uint64

// MakeKey builds a tree key.
func MakeKey(asid addr.ASID, va addr.VA) Key {
	return Key(uint64(asid)<<addr.VABits | uint64(va)&(1<<addr.VABits-1))
}

// ASID extracts the address space component of the key.
func (k Key) ASID() addr.ASID { return addr.ASID(k >> addr.VABits) }

// VA extracts the virtual address component of the key.
func (k Key) VA() addr.VA { return addr.VA(k & (1<<addr.VABits - 1)) }

// Segment maps [Base, Base+Length) of one address space onto the contiguous
// physical range starting at PABase.
type Segment struct {
	ID     ID
	ASID   addr.ASID
	Base   addr.VA
	Length uint64
	PABase addr.PA
	Perm   addr.Perm
	// touched is a bitmap of the 4 KiB pages accessed, bit i standing for
	// virtual page Base.Page()+i, and nTouched its population count; they
	// feed the eager-allocation utilization study (Table III).
	touched  []uint64
	nTouched uint64
}

// Contains reports whether the segment covers (asid, va).
func (s *Segment) Contains(asid addr.ASID, va addr.VA) bool {
	return s.ASID == asid && va >= s.Base && uint64(va-s.Base) < s.Length
}

// Translate maps va (which must be within the segment) to its PA.
func (s *Segment) Translate(va addr.VA) addr.PA {
	return s.PABase + addr.PA(va-s.Base)
}

// Pages returns the segment length in 4 KiB pages (rounded up).
func (s *Segment) Pages() uint64 {
	return (s.Length + addr.PageSize - 1) / addr.PageSize
}

// Touch records an access to va, which must lie within the segment, for
// utilization accounting.
func (s *Segment) Touch(va addr.VA) {
	i := va.Page() - s.Base.Page()
	w := i / 64
	if w >= uint64(len(s.touched)) {
		// Sized on first touch to cover every page of the segment; a
		// Compact merge may extend it later.
		n := max(w+1, (s.Pages()+63)/64)
		s.touched = append(s.touched, make([]uint64, n-uint64(len(s.touched)))...)
	}
	if bit := uint64(1) << (i % 64); s.touched[w]&bit == 0 {
		s.touched[w] |= bit
		s.nTouched++
	}
}

// TouchedPages returns how many distinct pages of the segment were
// accessed.
func (s *Segment) TouchedPages() uint64 { return s.nTouched }

// Utilization returns touched pages / allocated pages.
func (s *Segment) Utilization() float64 {
	p := s.Pages()
	if p == 0 {
		return 0
	}
	return float64(s.nTouched) / float64(p)
}

func (s *Segment) String() string {
	return fmt.Sprintf("seg%d[%s %#x+%#x -> %#x %s]",
		s.ID, s.ASID, uint64(s.Base), s.Length, uint64(s.PABase), s.Perm)
}

// Table is the system-wide segment table: the OS-maintained in-memory copy
// that the equal-sized hardware table mirrors (so segment misses occur only
// on cold entries).
type Table struct {
	slots [TableCapacity]*Segment
	free  []ID
	used  int
}

// NewTable creates an empty table with all slots free.
func NewTable() *Table {
	t := &Table{}
	for i := TableCapacity - 1; i >= 0; i-- {
		t.free = append(t.free, ID(i))
	}
	return t
}

// Alloc assigns a slot to s and stores it, returning the ID. It reports
// failure when the table is full (the OS must then merge or spill).
func (t *Table) Alloc(s *Segment) (ID, bool) {
	if len(t.free) == 0 {
		return NoID, false
	}
	id := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	s.ID = id
	t.slots[id] = s
	t.used++
	return id, true
}

// Get returns the segment in slot id, or nil.
func (t *Table) Get(id ID) *Segment {
	if id < 0 || id >= TableCapacity {
		return nil
	}
	return t.slots[id]
}

// Release frees slot id. It panics on double release (an OS bookkeeping
// bug in the simulator).
func (t *Table) Release(id ID) {
	if t.slots[id] == nil {
		panic(fmt.Sprintf("segment: release of free slot %d", id))
	}
	t.slots[id] = nil
	t.free = append(t.free, id)
	t.used--
}

// Used returns the number of occupied slots.
func (t *Table) Used() int { return t.used }

// Capacity returns the slot count.
func (t *Table) Capacity() int { return TableCapacity }

// ErrNoSlots is returned when the segment table is exhausted.
var ErrNoSlots = fmt.Errorf("segment: table full (%d slots)", TableCapacity)

// ErrOverlap is returned when a new segment would overlap an existing one
// in the same address space.
var ErrOverlap = fmt.Errorf("segment: virtual range overlaps existing segment")

// Manager is the OS view of segment translation: it owns the table and the
// index tree and keeps them consistent.
type Manager struct {
	Table *Table
	Tree  *IndexTree
	// byASID orders each address space's segments by base address.
	byASID map[addr.ASID][]*Segment
	// MaxUsed tracks the high-water mark of concurrently live segments,
	// reported in Table III.
	MaxUsed int
	// OnRebuild, when set, runs after every index tree rebuild; the MMU
	// uses it to flush the index cache, whose cached node addresses move.
	OnRebuild func()
	// Incremental maintains the index tree with in-place B-tree inserts
	// and lazy deletes instead of bulk rebuilds: node addresses stay
	// stable (no index cache flush) at the cost of a ~2/3 node fill
	// factor, as a real OS-maintained tree runs.
	Incremental bool
}

// NewManager creates a manager whose index tree nodes are materialized
// through the given node arena.
func NewManager(arena *NodeArena) *Manager {
	return &Manager{
		Table:  NewTable(),
		Tree:   NewIndexTree(arena),
		byASID: make(map[addr.ASID][]*Segment),
	}
}

// Allocate creates a segment and indexes it. The virtual range must not
// overlap an existing segment of the same address space.
func (m *Manager) Allocate(asid addr.ASID, base addr.VA, length uint64, paBase addr.PA, perm addr.Perm) (*Segment, error) {
	if length == 0 {
		return nil, fmt.Errorf("segment: zero-length segment")
	}
	segs := m.byASID[asid]
	i := sort.Search(len(segs), func(i int) bool { return segs[i].Base > base })
	if i > 0 {
		prev := segs[i-1]
		if uint64(base-prev.Base) < prev.Length {
			return nil, ErrOverlap
		}
	}
	if i < len(segs) && uint64(segs[i].Base-base) < length {
		return nil, ErrOverlap
	}
	s := &Segment{ASID: asid, Base: base, Length: length, PABase: paBase, Perm: perm}
	if _, ok := m.Table.Alloc(s); !ok {
		return nil, ErrNoSlots
	}
	segs = append(segs, nil)
	copy(segs[i+1:], segs[i:])
	segs[i] = s
	m.byASID[asid] = segs
	if m.Table.Used() > m.MaxUsed {
		m.MaxUsed = m.Table.Used()
	}
	if m.Incremental {
		if err := m.Tree.Insert(TreeEntry{Key: MakeKey(asid, base), Value: s.ID}); err != nil {
			// Roll back the bookkeeping; the caller sees the failure.
			m.byASID[asid] = append(segs[:i], segs[i+1:]...)
			m.Table.Release(s.ID)
			return nil, err
		}
	} else {
		m.rebuildTree()
	}
	return s, nil
}

// Free removes a segment from the table and index.
func (m *Manager) Free(s *Segment) {
	segs := m.byASID[s.ASID]
	for i, x := range segs {
		if x == s {
			m.byASID[s.ASID] = append(segs[:i], segs[i+1:]...)
			break
		}
	}
	m.Table.Release(s.ID)
	if m.Incremental {
		m.Tree.Delete(MakeKey(s.ASID, s.Base))
		return
	}
	m.rebuildTree()
}

// Compact merges adjacent segments of the address space whose virtual and
// physical ranges are both contiguous and whose permissions match — the
// inverse of fragmentation, applied by the OS when table pressure builds
// (e.g. after many reservation promotions or frees). It returns the number
// of merges performed.
func (m *Manager) Compact(asid addr.ASID) int {
	segs := m.byASID[asid]
	merges := 0
	for i := 0; i+1 < len(segs); {
		a, b := segs[i], segs[i+1]
		if a.Base+addr.VA(a.Length) == b.Base &&
			a.PABase+addr.PA(a.Length) == b.PABase &&
			a.Perm == b.Perm {
			// Extend a over b and drop b.
			if m.Incremental {
				m.Tree.Delete(MakeKey(asid, b.Base))
			}
			a.Length += b.Length
			for w, word := range b.touched {
				for ; word != 0; word &= word - 1 {
					page := b.Base.Page() + uint64(w)*64 + uint64(bits.TrailingZeros64(word))
					a.Touch(addr.PageToVA(page))
				}
			}
			m.Table.Release(b.ID)
			segs = append(segs[:i+1], segs[i+2:]...)
			merges++
			continue
		}
		i++
	}
	m.byASID[asid] = segs
	if merges > 0 && !m.Incremental {
		m.rebuildTree()
	}
	return merges
}

// LookupSoft finds the segment covering (asid, va) functionally (the OS /
// simulator view; hardware uses the index tree walk).
func (m *Manager) LookupSoft(asid addr.ASID, va addr.VA) (*Segment, bool) {
	segs := m.byASID[asid]
	i := sort.Search(len(segs), func(i int) bool { return segs[i].Base > va })
	if i == 0 {
		return nil, false
	}
	s := segs[i-1]
	if s.Contains(asid, va) {
		return s, true
	}
	return nil, false
}

// Segments returns the address space's segments ordered by base.
func (m *Manager) Segments(asid addr.ASID) []*Segment { return m.byASID[asid] }

// Split replaces s with parts segments covering the same virtual range but
// backed by separate physical extents obtained from allocPhys. It models
// external fragmentation (the paper's index-cache study artificially breaks
// each segment into 10). The original physical extent is released via
// freePhys before the pieces are allocated.
func (m *Manager) Split(s *Segment, parts int,
	allocPhys func(frames uint64) (addr.PA, bool),
	freePhys func(pa addr.PA, frames uint64)) error {
	if parts < 2 {
		return fmt.Errorf("segment: split into %d parts", parts)
	}
	pages := s.Pages()
	if uint64(parts) > pages {
		parts = int(pages)
		if parts < 2 {
			return fmt.Errorf("segment: %d pages cannot split", pages)
		}
	}
	asid, base, perm := s.ASID, s.Base, s.Perm
	m.Free(s)
	freePhys(s.PABase, pages)
	per := pages / uint64(parts)
	rem := pages % uint64(parts)
	va := base
	for i := 0; i < parts; i++ {
		n := per
		if uint64(i) < rem {
			n++
		}
		pa, ok := allocPhys(n)
		if !ok {
			return fmt.Errorf("segment: out of physical memory during split")
		}
		if _, err := m.Allocate(asid, va, n*addr.PageSize, pa, perm); err != nil {
			return err
		}
		va += addr.VA(n * addr.PageSize)
	}
	return nil
}

// rebuildTree reconstructs the index tree from all live segments. Segment
// creation is rare relative to lookups, so a bulk rebuild keeps the tree
// perfectly balanced, matching the paper's depth-four bound for 2048
// segments.
func (m *Manager) rebuildTree() {
	entries := make([]TreeEntry, 0, m.Table.Used())
	for _, segs := range m.byASID {
		for _, s := range segs {
			entries = append(entries, TreeEntry{Key: MakeKey(s.ASID, s.Base), Value: s.ID})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	m.Tree.Build(entries)
	if m.OnRebuild != nil {
		m.OnRebuild()
	}
}
