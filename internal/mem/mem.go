// Package mem models physical memory: a contiguous-extent frame allocator
// (segment translation requires variable-length contiguous physical
// regions), a sparse byte-addressable backing store for pages that hold real
// contents (page tables, the segment index tree), and a DRAM-lite timing
// model with banks and open-row tracking.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"

	"hybridvc/internal/addr"
)

// extent is a run of free frames [start, start+count).
type extent struct {
	start uint64 // frame number
	count uint64
}

// Allocator hands out physical frames. It is an extent (first-fit) allocator
// with coalescing so the OS model can eagerly allocate variable-length
// contiguous segments, as the paper's segment translation requires.
type Allocator struct {
	totalFrames uint64
	free        []extent // sorted by start, non-adjacent
	allocated   uint64
}

// NewAllocator creates an allocator over size bytes of physical memory.
// It panics unless size is a positive multiple of the page size.
func NewAllocator(size uint64) *Allocator {
	if size == 0 || size%addr.PageSize != 0 {
		panic(fmt.Sprintf("mem: physical size %d not a positive page multiple", size))
	}
	frames := size / addr.PageSize
	return &Allocator{
		totalFrames: frames,
		free:        []extent{{start: 0, count: frames}},
	}
}

// TotalFrames returns the number of frames managed.
func (a *Allocator) TotalFrames() uint64 { return a.totalFrames }

// FreeFrames returns the number of currently free frames.
func (a *Allocator) FreeFrames() uint64 { return a.totalFrames - a.allocated }

// AllocatedFrames returns the number of currently allocated frames.
func (a *Allocator) AllocatedFrames() uint64 { return a.allocated }

// AllocContiguous allocates nframes contiguous frames first-fit and returns
// the physical address of the first frame. The boolean is false when no
// free extent is large enough (external fragmentation or exhaustion).
func (a *Allocator) AllocContiguous(nframes uint64) (addr.PA, bool) {
	if nframes == 0 {
		return 0, false
	}
	for i := range a.free {
		if a.free[i].count >= nframes {
			start := a.free[i].start
			a.free[i].start += nframes
			a.free[i].count -= nframes
			if a.free[i].count == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			a.allocated += nframes
			return addr.FrameToPA(start), true
		}
	}
	return 0, false
}

// AllocFrame allocates a single frame.
func (a *Allocator) AllocFrame() (addr.PA, bool) {
	return a.AllocContiguous(1)
}

// AllocContiguousAligned allocates nframes contiguous frames whose start
// is a multiple of alignFrames (e.g. 512 for 2 MiB-aligned huge pages).
// Unaligned head space of the chosen extent remains free.
func (a *Allocator) AllocContiguousAligned(nframes, alignFrames uint64) (addr.PA, bool) {
	if nframes == 0 || alignFrames == 0 {
		return 0, false
	}
	for i := range a.free {
		e := a.free[i]
		start := (e.start + alignFrames - 1) / alignFrames * alignFrames
		if start+nframes > e.start+e.count {
			continue
		}
		// Carve [start, start+nframes) out of the extent, leaving the
		// head and tail pieces free.
		tailStart := start + nframes
		tailCount := e.start + e.count - tailStart
		headCount := start - e.start
		switch {
		case headCount == 0 && tailCount == 0:
			a.free = append(a.free[:i], a.free[i+1:]...)
		case headCount == 0:
			a.free[i] = extent{start: tailStart, count: tailCount}
		case tailCount == 0:
			a.free[i] = extent{start: e.start, count: headCount}
		default:
			a.free[i] = extent{start: e.start, count: headCount}
			a.free = append(a.free, extent{})
			copy(a.free[i+2:], a.free[i+1:])
			a.free[i+1] = extent{start: tailStart, count: tailCount}
		}
		a.allocated += nframes
		return addr.FrameToPA(start), true
	}
	return 0, false
}

// Free returns nframes frames starting at pa to the free pool, coalescing
// with neighbours. It panics on double-free or unaligned addresses: the OS
// model owns all allocation, so these indicate simulator bugs.
func (a *Allocator) Free(pa addr.PA, nframes uint64) {
	if uint64(pa)%addr.PageSize != 0 {
		panic(fmt.Sprintf("mem: Free of unaligned address %#x", uint64(pa)))
	}
	start := pa.Frame()
	if start+nframes > a.totalFrames {
		panic(fmt.Sprintf("mem: Free beyond physical memory: frame %d + %d", start, nframes))
	}
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].start > start })
	// Check overlap with predecessor and successor.
	if i > 0 {
		prev := a.free[i-1]
		if prev.start+prev.count > start {
			panic(fmt.Sprintf("mem: double free at frame %d", start))
		}
	}
	if i < len(a.free) && start+nframes > a.free[i].start {
		panic(fmt.Sprintf("mem: double free at frame %d", start))
	}
	a.free = append(a.free, extent{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = extent{start: start, count: nframes}
	// Coalesce with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].start+a.free[i].count == a.free[i+1].start {
		a.free[i].count += a.free[i+1].count
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].start+a.free[i-1].count == a.free[i].start {
		a.free[i-1].count += a.free[i].count
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	a.allocated -= nframes
}

// LargestFreeExtent returns the size in frames of the largest free run.
func (a *Allocator) LargestFreeExtent() uint64 {
	var max uint64
	for _, e := range a.free {
		if e.count > max {
			max = e.count
		}
	}
	return max
}

// NumFreeExtents returns how many disjoint free runs exist — a direct
// measure of external fragmentation.
func (a *Allocator) NumFreeExtents() int { return len(a.free) }

// chunkBits sets the Store's directory granule: one chunk holds the page
// pointers of 1<<chunkBits consecutive frames (512 frames, 2 MiB).
const (
	chunkBits   = 9
	chunkFrames = 1 << chunkBits
)

// page is the backing bytes of one physical frame.
type page = [addr.PageSize]byte

// Store is the sparse backing store for physical pages that carry real
// contents in the simulation (page-table pages and index-tree pages).
// Ordinary data pages never allocate backing bytes.
//
// Frames are found through a two-level directory: dir[frame>>chunkBits]
// points to a chunk of page pointers indexed by the frame's low bits, so a
// lookup is two indexed loads with no hashing. Chunks and pages are
// allocated on first write; an unbacked frame reads as zero and allocates
// nothing. Pages are never released (ZeroPage clears in place).
type Store struct {
	dir    []*[chunkFrames]*page
	backed int
}

// NewStore creates an empty backing store.
func NewStore() *Store { return &Store{} }

// lookup returns frame f's backing page, or nil when it has none.
func (s *Store) lookup(f uint64) *page {
	c := f >> chunkBits
	if c >= uint64(len(s.dir)) {
		return nil
	}
	if ch := s.dir[c]; ch != nil {
		return ch[f&(chunkFrames-1)]
	}
	return nil
}

// Read64 reads the 8-byte word at pa (must be 8-byte aligned).
func (s *Store) Read64(pa addr.PA) uint64 {
	if uint64(pa)%8 != 0 {
		panic(fmt.Sprintf("mem: unaligned Read64 at %#x", uint64(pa)))
	}
	p := s.lookup(pa.Frame())
	if p == nil {
		return 0
	}
	off := pa.PageOffset()
	return binary.LittleEndian.Uint64(p[off : off+8])
}

// Write64 writes the 8-byte word at pa (must be 8-byte aligned), backing
// its page on first write.
func (s *Store) Write64(pa addr.PA, v uint64) {
	if uint64(pa)%8 != 0 {
		panic(fmt.Sprintf("mem: unaligned Write64 at %#x", uint64(pa)))
	}
	off := pa.PageOffset()
	binary.LittleEndian.PutUint64(s.Page(pa)[off:off+8], v)
}

// Page returns the backing bytes of the frame containing pa, backing the
// frame on first use. Words are little-endian, as Read64 and Write64 see
// them. A caller that writes many words of one frame fetches it once.
func (s *Store) Page(pa addr.PA) *[addr.PageSize]byte {
	f := pa.Frame()
	c := f >> chunkBits
	if n := c + 1; n > uint64(len(s.dir)) {
		s.dir = append(s.dir, make([]*[chunkFrames]*page, n-uint64(len(s.dir)))...)
	}
	ch := s.dir[c]
	if ch == nil {
		ch = new([chunkFrames]*page)
		s.dir[c] = ch
	}
	p := ch[f&(chunkFrames-1)]
	if p == nil {
		p = new(page)
		ch[f&(chunkFrames-1)] = p
		s.backed++
	}
	return p
}

// ZeroPage clears the page containing pa.
func (s *Store) ZeroPage(pa addr.PA) {
	if p := s.lookup(pa.Frame()); p != nil {
		*p = page{}
	}
}

// PagesBacked returns how many pages currently hold backing bytes.
func (s *Store) PagesBacked() int { return s.backed }

// DRAMConfig parameterizes the DRAM timing model. Latencies are in core
// cycles (the paper's core runs at 3.4 GHz over DDR3-1600).
type DRAMConfig struct {
	// Banks is the number of independent banks (row buffers).
	Banks int
	// RowBytes is the row buffer size in bytes.
	RowBytes uint64
	// RowHitCycles is the access latency when the row is already open.
	RowHitCycles uint64
	// RowMissCycles is the latency when a different row must be opened.
	RowMissCycles uint64
}

// DefaultDRAMConfig returns DDR3-1600-like timings at 3.4 GHz
// (~18 ns row hit, ~48 ns row miss).
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{Banks: 8, RowBytes: 8192, RowHitCycles: 60, RowMissCycles: 165}
}

// DRAM is the bank/row-buffer timing model.
type DRAM struct {
	cfg      DRAMConfig
	openRow  []uint64 // per bank; ^0 when closed
	Accesses uint64
	RowHits  uint64
}

// NewDRAM creates a DRAM model; it panics on non-positive bank counts or
// row sizes since the configuration is fixed by the experiment.
func NewDRAM(cfg DRAMConfig) *DRAM {
	if cfg.Banks <= 0 || cfg.RowBytes == 0 {
		panic("mem: invalid DRAM config")
	}
	open := make([]uint64, cfg.Banks)
	for i := range open {
		open[i] = ^uint64(0)
	}
	return &DRAM{cfg: cfg, openRow: open}
}

// Access models one line fill from pa and returns its latency in cycles.
func (d *DRAM) Access(pa addr.PA) uint64 {
	row := uint64(pa) / d.cfg.RowBytes
	bank := row % uint64(d.cfg.Banks)
	d.Accesses++
	if d.openRow[bank] == row {
		d.RowHits++
		return d.cfg.RowHitCycles
	}
	d.openRow[bank] = row
	return d.cfg.RowMissCycles
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (d *DRAM) RowHitRate() float64 {
	if d.Accesses == 0 {
		return 0
	}
	return float64(d.RowHits) / float64(d.Accesses)
}
