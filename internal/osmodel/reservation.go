package osmodel

import (
	"fmt"

	"hybridvc/internal/addr"
	"hybridvc/internal/segment"
)

// Reservation-based allocation (Section IV-B, after Navarro et al.):
// eager allocation wastes the unused tail of each region (Table III shows
// 17-75% waste for four workloads), while pure demand paging destroys the
// contiguity segments need. A reservation allocates the full contiguous
// physical extent up front but *promotes* fixed-size sub-chunks to real,
// translated segments only on first touch. Adjacent promoted chunks merge
// into a single segment, so a fully touched reservation converges to one
// segment — at the cost of transiently needing more table entries.

// ReserveChunkPages is the promotion granularity (2 MiB).
const ReserveChunkPages = addr.HugePageSize / addr.PageSize

// Reservation tracks a reserved-but-partially-promoted region.
type Reservation struct {
	Start  addr.VA
	Length uint64
	PABase addr.PA
	Perm   addr.Perm
	// promoted[i] is non-nil when chunk i is backed by that segment.
	promoted []*segment.Segment
}

// chunks returns the chunk count.
func (r *Reservation) chunks() int { return len(r.promoted) }

// chunkOf returns the chunk index containing va.
func (r *Reservation) chunkOf(va addr.VA) int {
	return int(uint64(va-r.Start) / (ReserveChunkPages * addr.PageSize))
}

// PromotedChunks returns how many chunks have been promoted.
func (r *Reservation) PromotedChunks() int {
	n := 0
	for _, s := range r.promoted {
		if s != nil {
			n++
		}
	}
	return n
}

// MmapReserved allocates a region with reservation-based backing: the
// physical extent is contiguous and reserved immediately, but pages are
// mapped and segments created only as chunks are touched (via HandleFault).
func (p *Process) MmapReserved(length uint64, perm addr.Perm) (addr.VA, error) {
	if length == 0 {
		return 0, fmt.Errorf("osmodel: zero-length reservation")
	}
	// Round to whole chunks so promotion never splits a chunk.
	chunkBytes := uint64(ReserveChunkPages * addr.PageSize)
	length = (length + chunkBytes - 1) &^ (chunkBytes - 1)
	frames := length / addr.PageSize
	pa, ok := p.k.Alloc.AllocContiguous(frames)
	if !ok {
		return 0, fmt.Errorf("osmodel: cannot reserve %d contiguous frames", frames)
	}
	// Align the VA to the chunk size so chunk boundaries are 2 MiB
	// boundaries (also keeps segment-cache granules clean).
	p.vaNext = (p.vaNext + addr.VA(chunkBytes-1)) &^ addr.VA(chunkBytes-1)
	start := p.vaNext
	p.vaNext += addr.VA(length) + addr.PageSize

	r := &Region{Start: start, Length: length, Perm: perm, Demand: true}
	r.Reservation = &Reservation{
		Start: start, Length: length, PABase: pa, Perm: perm,
		promoted: make([]*segment.Segment, length/chunkBytes),
	}
	p.Regions = append(p.Regions, r)
	return start, nil
}

// promoteChunk backs the chunk containing va: page-table entries appear,
// and the chunk joins a segment — merging with promoted neighbours so
// contiguous use converges to few segments.
func (p *Process) promoteChunk(r *Region, va addr.VA) bool {
	res := r.Reservation
	ci := res.chunkOf(va)
	if res.promoted[ci] != nil {
		return false // already promoted
	}
	chunkBytes := uint64(ReserveChunkPages * addr.PageSize)
	chunkVA := res.Start + addr.VA(uint64(ci)*chunkBytes)
	chunkPA := res.PABase + addr.PA(uint64(ci)*chunkBytes)

	// Map the chunk's pages.
	if err := p.PT.MapRange(chunkVA, chunkPA, ReserveChunkPages, res.Perm, false); err != nil {
		return false
	}

	// Determine the merged extent: this chunk plus adjacent promoted runs.
	lo, hi := ci, ci
	for lo > 0 && res.promoted[lo-1] != nil {
		lo--
	}
	for hi < res.chunks()-1 && res.promoted[hi+1] != nil {
		hi++
	}
	// Free the neighbours' segments (they are subsumed).
	freed := map[*segment.Segment]bool{}
	for i := lo; i <= hi; i++ {
		if s := res.promoted[i]; s != nil && !freed[s] {
			p.k.SegMgr.Free(s)
			freed[s] = true
		}
	}
	base := res.Start + addr.VA(uint64(lo)*chunkBytes)
	length := uint64(hi-lo+1) * chunkBytes
	paBase := res.PABase + addr.PA(uint64(lo)*chunkBytes)
	seg, err := p.k.SegMgr.Allocate(p.ASID, base, length, paBase, res.Perm)
	if err != nil {
		return false
	}
	for i := lo; i <= hi; i++ {
		res.promoted[i] = seg
	}
	// Refresh the region's segment list (distinct promoted segments).
	r.Segments = r.Segments[:0]
	seen := map[*segment.Segment]bool{}
	for _, s := range res.promoted {
		if s != nil && !seen[s] {
			r.Segments = append(r.Segments, s)
			seen[s] = true
		}
	}
	return true
}

// ReservedUtilization returns promoted/reserved chunks across the
// process's reservations (1.0 when no reservations exist).
func (p *Process) ReservedUtilization() float64 {
	var promoted, total int
	for _, r := range p.Regions {
		if r.Reservation == nil {
			continue
		}
		promoted += r.Reservation.PromotedChunks()
		total += r.Reservation.chunks()
	}
	if total == 0 {
		return 1
	}
	return float64(promoted) / float64(total)
}
