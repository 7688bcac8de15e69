// Package mem models physical memory: a contiguous-extent frame allocator
// (segment translation requires variable-length contiguous physical
// regions) and a DRAM-lite timing model with banks and open-row tracking.
// Physical memory holds no contents: the structures that live in simulated
// frames (page tables, the segment index tree) keep their entries on the
// host and use their frames' addresses for timed accesses.
package mem

import (
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
