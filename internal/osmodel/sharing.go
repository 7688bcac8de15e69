package osmodel

import (
	"fmt"

	"hybridvc/internal/addr"
	"hybridvc/internal/segment"
	"hybridvc/internal/synfilter"
)

// fineGranule aligns shared mappings to the synonym filter's fine
// granularity (32 KiB), matching the paper's observation that shared pages
// are commonly allocated as 8 consecutive 4 KiB pages.
const fineGranule = 1 << synfilter.FineBits

// ShareAnonymous creates an r/w shared (synonym) mapping of length bytes
// visible in every given process, returning the per-process virtual
// addresses. The pages are physically addressed in caches, so each process
// marks its synonym filter and broadcasts the update like a TLB shootdown.
func (k *Kernel) ShareAnonymous(procs []*Process, length uint64) ([]addr.VA, error) {
	if len(procs) == 0 || length == 0 {
		return nil, fmt.Errorf("osmodel: invalid share request")
	}
	length = (length + addr.PageSize - 1) &^ uint64(addr.PageSize-1)
	frames := length / addr.PageSize
	pa, ok := k.Alloc.AllocContiguous(frames)
	if !ok {
		return nil, fmt.Errorf("osmodel: out of physical memory for shared mapping")
	}
	k.sharedExtents[pa] = &sharedExtent{frames: frames, refs: len(procs)}
	vas := make([]addr.VA, len(procs))
	for i, p := range procs {
		// Shared mappings live in the dedicated shm area, aligned to the
		// fine filter granule (shared pages commonly come in 8-page runs).
		p.shmNext = (p.shmNext + fineGranule - 1) &^ addr.VA(fineGranule-1)
		start := p.shmNext
		p.shmNext += addr.VA(length) + addr.PageSize
		r := &Region{Start: start, Length: length, Perm: addr.PermRW, Shared: true, sharedPA: pa}
		if err := p.PT.MapRange(start, pa, frames, addr.PermRW, true); err != nil {
			return nil, err
		}
		p.Regions = append(p.Regions, r)
		p.SynonymRanges = append(p.SynonymRanges, synfilter.Range{Start: start, Length: length})
		p.Filter.MarkSynonymRange(start, length)
		k.FilterUpdates.Inc()
		k.sink.FilterUpdate(p.ASID)
		vas[i] = start
	}
	return vas, nil
}

// MarkShared transitions an existing private page range of p to synonym
// status — e.g. when a second process maps it. Cached ASID+VA lines of the
// affected pages must be flushed (they will be re-cached under the physical
// address), the delayed translation entries shot down, and the filter
// updated (Section III-A "Page Deallocation and Remap").
func (k *Kernel) MarkShared(p *Process, va addr.VA, length uint64) error {
	r := p.FindRegion(va)
	if r == nil || va.PageAligned() != va {
		return fmt.Errorf("osmodel: MarkShared of unmapped or unaligned range")
	}
	if uint64(r.End()-va) < length {
		return fmt.Errorf("osmodel: MarkShared beyond region end")
	}
	for off := uint64(0); off < length; off += addr.PageSize {
		page := va + addr.VA(off)
		if !p.PT.SetShared(page, true) {
			return fmt.Errorf("osmodel: page %#x not mapped", uint64(page))
		}
		k.sink.FlushPage(addr.VirtName(p.ASID, page))
		k.sink.TLBShootdown(p.ASID, page.Page())
		k.Shootdowns.Inc()
	}
	r.Shared = true
	p.SynonymRanges = append(p.SynonymRanges, synfilter.Range{Start: va, Length: length})
	p.Filter.MarkSynonymRange(va, length)
	k.FilterUpdates.Inc()
	k.sink.FilterUpdate(p.ASID)
	return nil
}

// RebuildFilter reconstructs p's synonym filter from its live synonym
// ranges, shedding stale bits accumulated by shared->private transitions.
func (k *Kernel) RebuildFilter(p *Process) {
	p.Filter.Rebuild(p.SynonymRanges)
	k.FilterUpdates.Inc()
	k.sink.FilterUpdate(p.ASID)
}

// MarkPrivate transitions a synonym range of p back to private. The PTE
// sharing bits clear and the physically addressed cache lines flush (the
// pages will be re-cached under ASID+VA), but — per Section III-B — the
// Bloom filter is NOT cleared, since other pages may share its bits. The
// stale bits cause false positives until the filter is rebuilt; the
// hybrid MMU's adaptive policy (or an explicit RebuildFilter call)
// handles that.
func (k *Kernel) MarkPrivate(p *Process, va addr.VA, length uint64) error {
	r := p.FindRegion(va)
	if r == nil || va.PageAligned() != va {
		return fmt.Errorf("osmodel: MarkPrivate of unmapped or unaligned range")
	}
	for off := uint64(0); off < length; off += addr.PageSize {
		page := va + addr.VA(off)
		pte, ok := p.PT.Lookup(page)
		if !ok {
			return fmt.Errorf("osmodel: page %#x not mapped", uint64(page))
		}
		p.PT.SetShared(page, false)
		// Flush the physically addressed copies; the single-name
		// invariant then lets ASID+VA caching take over.
		k.sink.FlushPage(addr.PhysName(addr.FrameToPA(pte.Frame)))
		k.sink.TLBShootdown(p.ASID, page.Page())
		k.Shootdowns.Inc()
	}
	if uint64(r.End()-va) <= length || va == r.Start {
		r.Shared = false
	}
	// The pages are now non-synonyms, so delayed translation must cover
	// them: register segments over the contiguous physical runs.
	runStart := addr.VA(0)
	var runPA addr.PA
	var runLen uint64
	flush := func() error {
		if runLen == 0 {
			return nil
		}
		seg, err := k.SegMgr.Allocate(p.ASID, runStart, runLen, runPA, r.Perm)
		if err != nil {
			return err
		}
		r.Segments = append(r.Segments, seg)
		runLen = 0
		return nil
	}
	for off := uint64(0); off < length; off += addr.PageSize {
		page := va + addr.VA(off)
		pa, _ := p.PT.Translate(page)
		if runLen > 0 && pa == runPA+addr.PA(runLen) {
			runLen += addr.PageSize
			continue
		}
		if err := flush(); err != nil {
			return err
		}
		runStart, runPA, runLen = page, pa, addr.PageSize
	}
	if err := flush(); err != nil {
		return err
	}
	// Drop fully covered ranges from the live list (used by rebuilds).
	kept := p.SynonymRanges[:0]
	for _, sr := range p.SynonymRanges {
		if sr.Start >= va && uint64(sr.Start-va)+sr.Length <= length {
			continue
		}
		kept = append(kept, sr)
	}
	p.SynonymRanges = kept
	return nil
}

// ContentShare deduplicates: the page at dstVA of dst is replaced by a
// read-only mapping of the frame backing srcVA of src. Both mappings
// become r/o, but — per Section III-D — they are NOT marked in the synonym
// filters: r/o synonyms cannot cause coherence problems, so both processes
// keep accessing the data by ASID+VA. Cached copies only have their
// permission bits updated.
func (k *Kernel) ContentShare(dst *Process, dstVA addr.VA, src *Process, srcVA addr.VA) error {
	srcPTE, ok := src.PT.Lookup(srcVA)
	if !ok {
		return fmt.Errorf("osmodel: source page unmapped")
	}
	dstPTE, ok := dst.PT.Lookup(dstVA)
	if !ok {
		return fmt.Errorf("osmodel: destination page unmapped")
	}
	// Free the duplicate frame and point dst at src's frame.
	if dstPTE.Frame != srcPTE.Frame {
		k.Alloc.Free(addr.FrameToPA(dstPTE.Frame), 1)
	}
	if err := dst.PT.Map(dstVA, addr.FrameToPA(srcPTE.Frame), addr.PermRO, false); err != nil {
		return err
	}
	src.PT.SetPerm(srcVA, addr.PermRO)
	// The old dst translation is stale: shoot it down and flush the dst
	// page's cached lines (they hold the duplicate frame's data).
	k.sink.TLBShootdown(dst.ASID, dstVA.Page())
	k.sink.FlushPage(addr.VirtName(dst.ASID, dstVA))
	k.Shootdowns.Inc()
	// src keeps its data; only the permission changes on cached copies.
	k.sink.SetPagePerm(addr.VirtName(src.ASID, srcVA), addr.PermRO)
	k.sink.TLBShootdown(src.ASID, srcVA.Page())
	k.Shootdowns.Inc()
	return nil
}

// breakCoW services a write to a content-shared r/o page: allocate a fresh
// frame, copy (implicitly), and remap private r/w (Section III-D).
func (p *Process) breakCoW(va addr.VA) bool {
	frame, ok := p.k.Alloc.AllocFrame()
	if !ok {
		return false
	}
	if err := p.PT.Map(va, frame, addr.PermRW, false); err != nil {
		return false
	}
	p.k.sink.TLBShootdown(p.ASID, va.Page())
	p.k.sink.FlushPage(addr.VirtName(p.ASID, va))
	p.k.CoWFaults.Inc()
	return true
}

// MapDMA allocates a buffer for device DMA. DMA pages are synonym pages by
// definition (devices address them physically), so they are marked in the
// filter and cached under their physical address.
func (k *Kernel) MapDMA(p *Process, length uint64) (addr.VA, error) {
	vas, err := k.ShareAnonymous([]*Process{p}, length)
	if err != nil {
		return 0, err
	}
	return vas[0], nil
}

// FragmentSegments splits every segment of the process into parts pieces
// backed by disjoint physical extents — the paper's external-fragmentation
// injection for the index cache study (Section IV-D).
func (k *Kernel) FragmentSegments(p *Process, parts int) error {
	for _, r := range p.Regions {
		if len(r.Segments) == 0 {
			continue
		}
		var newSegs []*segment.Segment
		for _, s := range r.Segments {
			if s.Pages() < 2 {
				newSegs = append(newSegs, s)
				continue
			}
			base := s.Base
			end := base + addr.VA(s.Length)
			if err := k.SegMgr.Split(s, parts,
				func(frames uint64) (addr.PA, bool) { return k.Alloc.AllocContiguous(frames) },
				func(pa addr.PA, frames uint64) { k.Alloc.Free(pa, frames) },
			); err != nil {
				return err
			}
			// Re-collect the pieces and refresh the page tables.
			for _, ns := range k.SegMgr.Segments(p.ASID) {
				if ns.Base >= base && ns.Base < end {
					newSegs = append(newSegs, ns)
					if err := p.PT.MapRange(ns.Base, ns.PABase, ns.Pages(), ns.Perm, false); err != nil {
						return err
					}
					for f := uint64(0); f < ns.Pages(); f++ {
						va := ns.Base + addr.VA(f*addr.PageSize)
						k.sink.TLBShootdown(p.ASID, va.Page())
						k.sink.FlushPage(addr.VirtName(p.ASID, va))
					}
				}
			}
		}
		r.Segments = newSegs
	}
	return nil
}

// Exit tears down the process: segments and frames are released, hardware
// translations shot down, and the ASID's cached lines flushed.
func (k *Kernel) Exit(p *Process) {
	for _, r := range p.Regions {
		if res := r.Reservation; res != nil {
			// Reservation frames were allocated as one extent; promoted
			// segments only borrow from it.
			for _, s := range r.Segments {
				k.SegMgr.Free(s)
			}
			k.Alloc.Free(res.PABase, res.Length/addr.PageSize)
			continue
		}
		if r.Shared && len(r.Segments) == 0 {
			// A ShareAnonymous mapping: the extent frees with its last
			// reference (releaseShared ignores unknown extents).
			k.releaseShared(r.sharedPA)
			continue
		}
		for _, s := range r.Segments {
			k.SegMgr.Free(s)
			k.Alloc.Free(s.PABase, s.Pages())
		}
	}
	p.PT.Destroy()
	delete(k.procs, p.ASID)
	if k.lastASID == p.ASID {
		k.lastProc = nil
	}
	// Flush every hardware trace of the ASID so it can be recycled; the
	// hybrid design otherwise risks a new process hitting the old one's
	// virtually named cache lines.
	k.sink.FlushASID(p.ASID)
	k.sink.FilterUpdate(p.ASID)
}

// Munmap removes a whole region previously returned by Mmap (Section
// III-A "Page Deallocation and Remap"): cached ASID+VA lines of the pages
// flush, translations shoot down, and the backing segments and frames are
// released. va must be the region's start address.
func (k *Kernel) Munmap(p *Process, va addr.VA) error {
	idx := -1
	for i, r := range p.Regions {
		if r.Start == va {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("osmodel: Munmap of unknown region %#x", uint64(va))
	}
	r := p.Regions[idx]
	for off := uint64(0); off < r.Length; off += addr.PageSize {
		page := va + addr.VA(off)
		pte, mapped := p.PT.Lookup(page)
		if !mapped {
			continue // demand page never touched
		}
		if pte.Shared {
			k.sink.FlushPage(addr.PhysName(addr.FrameToPA(pte.Frame)))
		} else {
			k.sink.FlushPage(addr.VirtName(p.ASID, page))
		}
		k.sink.TLBShootdown(p.ASID, page.Page())
		k.Shootdowns.Inc()
		p.PT.Unmap(page)
		if pte.Huge {
			off += addr.HugePageSize - addr.PageSize
		}
		// Demand-paged frames are freed page by page; eager and reserved
		// regions free via their segments/extent below.
		if r.Demand && r.Reservation == nil {
			k.Alloc.Free(addr.FrameToPA(pte.Frame), 1)
		}
	}
	switch {
	case r.Reservation != nil:
		for _, s := range r.Segments {
			k.SegMgr.Free(s)
		}
		k.Alloc.Free(r.Reservation.PABase, r.Reservation.Length/addr.PageSize)
	case r.Shared && len(r.Segments) == 0:
		k.releaseShared(r.sharedPA)
	default:
		for _, s := range r.Segments {
			k.SegMgr.Free(s)
			k.Alloc.Free(s.PABase, s.Pages())
		}
	}
	p.Regions = append(p.Regions[:idx], p.Regions[idx+1:]...)
	return nil
}
