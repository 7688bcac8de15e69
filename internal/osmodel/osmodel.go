// Package osmodel models the operating system functions the paper's
// hardware relies on: address space and ASID management, eager contiguous
// (segment-backed) and demand-paged memory allocation, synonym page
// creation with Bloom filter maintenance and shootdowns, read-only content
// sharing with copy-on-write (Section III-D), and DMA page registration.
//
// Hardware-visible side effects (TLB shootdowns, cache flushes, filter
// reloads) are delivered through a ShootdownSink so the MMU models can
// observe them without a dependency cycle.
package osmodel

import (
	"fmt"

	"hybridvc/internal/addr"
	"hybridvc/internal/mem"
	"hybridvc/internal/pagetable"
	"hybridvc/internal/segment"
	"hybridvc/internal/stats"
	"hybridvc/internal/synfilter"
)

// ShootdownSink receives OS-initiated hardware maintenance operations.
type ShootdownSink interface {
	// TLBShootdown invalidates the translation in every core's TLBs.
	TLBShootdown(asid addr.ASID, vpn uint64)
	// FlushPage removes a page's lines from the cache hierarchy.
	FlushPage(page addr.Name)
	// SetPagePerm updates the permission bits on cached copies of a page.
	SetPagePerm(page addr.Name, perm addr.Perm)
	// FilterUpdate notifies cores running asid that its synonym filter
	// changed and per-core filter storage must reload.
	FilterUpdate(asid addr.ASID)
	// FlushASID removes every translation and cached line of the address
	// space (process exit, before the ASID is recycled).
	FlushASID(asid addr.ASID)
}

// nopSink discards maintenance operations (useful before MMU attachment).
type nopSink struct{}

func (nopSink) TLBShootdown(addr.ASID, uint64)   {}
func (nopSink) FlushPage(addr.Name)              {}
func (nopSink) SetPagePerm(addr.Name, addr.Perm) {}
func (nopSink) FilterUpdate(addr.ASID)           {}
func (nopSink) FlushASID(addr.ASID)              {}

// Config parameterizes the kernel.
type Config struct {
	// PhysBytes is the physical memory size.
	PhysBytes uint64
	// VMID is the virtual machine this kernel runs in (0 for native).
	VMID uint32
}

// Kernel is one operating system instance (native, or a guest inside a VM).
type Kernel struct {
	cfg    Config
	Alloc  *mem.Allocator
	SegMgr *segment.Manager
	sink   ShootdownSink

	procs    map[addr.ASID]*Process
	nextProc uint32
	// lastASID/lastProc memoize the most recent Process lookup: delayed
	// translation resolves the same ASID for every LLC miss, and the memo
	// turns that map probe into a compare. Exit invalidates the memo.
	lastASID addr.ASID
	lastProc *Process
	// sharedExtents refcounts the physical extents behind ShareAnonymous
	// mappings so they free when the last mapping goes away.
	sharedExtents map[addr.PA]*sharedExtent

	// Shootdowns counts TLB shootdown broadcasts issued.
	Shootdowns stats.Counter
	// FilterUpdates counts synonym filter synchronizations.
	FilterUpdates stats.Counter
	// PageFaults counts demand-paging faults handled.
	PageFaults stats.Counter
	// CoWFaults counts copy-on-write faults handled.
	CoWFaults stats.Counter
}

// NewKernel boots a kernel over the given physical memory.
func NewKernel(cfg Config) *Kernel {
	alloc := mem.NewAllocator(cfg.PhysBytes)
	return &Kernel{
		cfg:           cfg,
		Alloc:         alloc,
		SegMgr:        segment.NewManager(segment.NewNodeArena(alloc)),
		sink:          nopSink{},
		procs:         make(map[addr.ASID]*Process),
		nextProc:      1,
		sharedExtents: make(map[addr.PA]*sharedExtent),
	}
}

// AttachSink registers the hardware maintenance sink.
func (k *Kernel) AttachSink(s ShootdownSink) { k.sink = s }

// VMID returns the kernel's virtual machine identifier.
func (k *Kernel) VMID() uint32 { return k.cfg.VMID }

// Process returns the process with the given ASID, or nil.
func (k *Kernel) Process(asid addr.ASID) *Process {
	if k.lastProc != nil && k.lastASID == asid {
		return k.lastProc
	}
	p := k.procs[asid]
	if p != nil {
		k.lastASID, k.lastProc = asid, p
	}
	return p
}

// ASIDs returns the address space identifiers of all live processes.
func (k *Kernel) ASIDs() []addr.ASID {
	out := make([]addr.ASID, 0, len(k.procs))
	for asid := range k.procs {
		out = append(out, asid)
	}
	return out
}

// ShootdownPage broadcasts a TLB shootdown for (asid, vpn) without any
// page-table change — the spurious-invalidation case real kernels hit when
// batching or deduplicating shootdown IPIs conservatively. The translation
// structures drop the entry and the next access re-walks the (unchanged)
// page tables, so correctness is unaffected; fault injectors use it to
// model shootdown storms.
func (k *Kernel) ShootdownPage(asid addr.ASID, vpn uint64) {
	k.sink.TLBShootdown(asid, vpn)
	k.Shootdowns.Inc()
}

// sharedExtent is a refcounted physical extent backing a shared mapping.
type sharedExtent struct {
	frames uint64
	refs   int
}

// releaseShared drops one reference on the shared extent at pa, freeing the
// frames when the last mapping disappears.
func (k *Kernel) releaseShared(pa addr.PA) {
	e, ok := k.sharedExtents[pa]
	if !ok {
		return
	}
	e.refs--
	if e.refs == 0 {
		k.Alloc.Free(pa, e.frames)
		delete(k.sharedExtents, pa)
	}
}

// Region is one virtual memory area of a process.
type Region struct {
	Start  addr.VA
	Length uint64
	Perm   addr.Perm
	// Shared marks a synonym (r/w shared) region.
	Shared bool
	// Demand marks demand-paged regions; others are eagerly backed.
	Demand bool
	// Segments lists the backing segments of eager regions.
	Segments []*segment.Segment
	// Reservation is set for reservation-backed regions (MmapReserved):
	// a contiguous physical extent whose chunks promote to segments on
	// first touch.
	Reservation *Reservation
	// sharedPA is the refcounted extent start for ShareAnonymous regions.
	sharedPA addr.PA
}

// End returns one past the region's last address.
func (r *Region) End() addr.VA { return r.Start + addr.VA(r.Length) }

// Process is one address space.
type Process struct {
	k    *Kernel
	ASID addr.ASID
	PT   *pagetable.Tables
	// Filter is the OS master copy of the process's synonym filter.
	Filter *synfilter.Filter
	// SynonymRanges lists live synonym ranges (for filter rebuilds).
	SynonymRanges []synfilter.Range

	Regions []*Region
	vaNext  addr.VA
	shmNext addr.VA

	// SharedAccesses and TotalAccesses drive the Table I ratios.
	SharedAccesses stats.Counter
	TotalAccesses  stats.Counter
}

// userBase is where private mmap regions start (a typical mmap_base).
const userBase = addr.VA(0x0000_1000_0000)

// shmBase is where shared (synonym) mappings start. Keeping shared
// mappings in their own high area — as Linux does for shmat/shared mmaps —
// matters for the synonym filter: a shared range saturates the Bloom
// filter bits of its own granules, and interleaving private data into the
// same coarse (16 MiB) granules would turn all of it into false positives.
const shmBase = addr.VA(0x7000_0000_0000)

// NewProcess creates an address space with a fresh ASID, page tables, and
// a cleared synonym filter.
func (k *Kernel) NewProcess() (*Process, error) {
	if k.nextProc > addr.MaxProc {
		return nil, fmt.Errorf("osmodel: out of process identifiers")
	}
	asid := addr.MakeASID(k.cfg.VMID, k.nextProc)
	k.nextProc++
	pt, err := pagetable.New(k.Alloc)
	if err != nil {
		return nil, err
	}
	p := &Process{
		k:       k,
		ASID:    asid,
		PT:      pt,
		Filter:  synfilter.New(),
		vaNext:  userBase,
		shmNext: shmBase,
	}
	k.procs[asid] = p
	return p, nil
}

// MmapOpts controls allocation policy.
type MmapOpts struct {
	// Demand defers physical allocation to first touch; the default is the
	// paper's eager allocation, which allocates contiguous segments
	// immediately (Section IV-B).
	Demand bool
	// MaxFragments bounds how many segments an eager allocation may be
	// split into when no single contiguous extent is available (0 = 16).
	MaxFragments int
	// HugePages backs the region with 2 MiB mappings (eager only): the
	// length rounds up to 2 MiB, the VA and PA align to 2 MiB, and the
	// page tables use PS-bit leaves — the conventional mitigation for
	// TLB reach that the hybrid design is compared against.
	HugePages bool
}

// Mmap allocates a virtual region of length bytes with the given
// permission and returns its start address.
func (p *Process) Mmap(length uint64, perm addr.Perm, opts MmapOpts) (addr.VA, error) {
	if length == 0 {
		return 0, fmt.Errorf("osmodel: zero-length mmap")
	}
	length = (length + addr.PageSize - 1) &^ uint64(addr.PageSize-1)
	if opts.HugePages {
		if opts.Demand {
			return 0, fmt.Errorf("osmodel: huge pages require eager backing")
		}
		length = (length + addr.HugePageSize - 1) &^ uint64(addr.HugePageSize-1)
		p.vaNext = (p.vaNext + addr.HugePageSize - 1) &^ addr.VA(addr.HugePageSize-1)
	}
	start := p.vaNext
	p.vaNext += addr.VA(length)
	// Keep regions apart by one guard page so segments never touch.
	p.vaNext += addr.PageSize

	r := &Region{Start: start, Length: length, Perm: perm, Demand: opts.Demand}
	if opts.HugePages {
		if err := p.backHuge(r); err != nil {
			return 0, err
		}
	} else if !opts.Demand {
		if err := p.backEagerly(r, opts.MaxFragments); err != nil {
			return 0, err
		}
	}
	p.Regions = append(p.Regions, r)
	return start, nil
}

// backHuge eagerly backs the region with 2 MiB mappings over one
// 2 MiB-aligned contiguous extent.
func (p *Process) backHuge(r *Region) error {
	const hugeFrames = addr.HugePageSize / addr.PageSize
	frames := r.Length / addr.PageSize
	pa, ok := p.k.Alloc.AllocContiguousAligned(frames, hugeFrames)
	if !ok {
		return fmt.Errorf("osmodel: cannot back %d frames 2MiB-aligned", frames)
	}
	seg, err := p.k.SegMgr.Allocate(p.ASID, r.Start, r.Length, pa, r.Perm)
	if err != nil {
		p.k.Alloc.Free(pa, frames)
		return err
	}
	r.Segments = append(r.Segments, seg)
	for off := uint64(0); off < r.Length; off += addr.HugePageSize {
		if err := p.PT.MapHuge(r.Start+addr.VA(off), pa+addr.PA(off), r.Perm, false); err != nil {
			return err
		}
	}
	return nil
}

// backEagerly allocates contiguous physical extents for the whole region,
// creating segments and leaf page table entries. When one extent is not
// available it recursively halves the request, modelling an OS compacting
// allocator under external fragmentation.
func (p *Process) backEagerly(r *Region, maxFragments int) error {
	if maxFragments <= 0 {
		maxFragments = 16
	}
	type piece struct {
		va     addr.VA
		frames uint64
	}
	pending := []piece{{r.Start, r.Length / addr.PageSize}}
	for len(pending) > 0 {
		pc := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		pa, ok := p.k.Alloc.AllocContiguous(pc.frames)
		if !ok {
			if pc.frames == 1 || len(r.Segments)+len(pending)+2 > maxFragments {
				return fmt.Errorf("osmodel: cannot back %d frames (fragmentation)", pc.frames)
			}
			half := pc.frames / 2
			pending = append(pending,
				piece{pc.va + addr.VA((pc.frames-half)*addr.PageSize), half},
				piece{pc.va, pc.frames - half})
			continue
		}
		seg, err := p.k.SegMgr.Allocate(p.ASID, pc.va, pc.frames*addr.PageSize, pa, r.Perm)
		if err != nil {
			p.k.Alloc.Free(pa, pc.frames)
			return err
		}
		r.Segments = append(r.Segments, seg)
		if err := p.PT.MapRange(pc.va, pa, pc.frames, r.Perm, false); err != nil {
			return err
		}
	}
	return nil
}

// FindRegion returns the region containing va, or nil.
func (p *Process) FindRegion(va addr.VA) *Region {
	for _, r := range p.Regions {
		if va >= r.Start && va < r.End() {
			return r
		}
	}
	return nil
}

// HandleFault services a page fault at va: demand-paging allocation or a
// copy-on-write break. It reports whether the fault was legal.
func (p *Process) HandleFault(va addr.VA, isWrite bool) bool {
	r := p.FindRegion(va)
	if r == nil {
		return false
	}
	pte, mapped := p.PT.Lookup(va.PageAligned())
	if !mapped {
		if r.Reservation != nil {
			if p.promoteChunk(r, va) {
				p.k.PageFaults.Inc()
				return true
			}
			return false
		}
		if !r.Demand {
			return false // eager regions are always mapped
		}
		frame, ok := p.k.Alloc.AllocFrame()
		if !ok {
			return false
		}
		if err := p.PT.Map(va.PageAligned(), frame, r.Perm, r.Shared); err != nil {
			return false
		}
		p.k.PageFaults.Inc()
		return true
	}
	if isWrite && pte.Perm == addr.PermRO && r.Perm == addr.PermRW {
		// Copy-on-write break of a content-shared page.
		return p.breakCoW(va.PageAligned())
	}
	return false
}

// Touch records an access for utilization and shared-ratio accounting.
func (p *Process) Touch(va addr.VA, r *Region) {
	p.TotalAccesses.Inc()
	if r != nil && r.Shared {
		p.SharedAccesses.Inc()
	}
	if r != nil {
		for _, s := range r.Segments {
			if s.Contains(p.ASID, va) {
				s.Touch(va)
				break
			}
		}
	}
}

// SharedAreaRatio returns (r/w shared pages) / (total mapped pages) — the
// Table I "shared area" metric.
func (p *Process) SharedAreaRatio() float64 {
	var shared, total uint64
	for _, r := range p.Regions {
		pages := r.Length / addr.PageSize
		total += pages
		if r.Shared {
			shared += pages
		}
	}
	return stats.Ratio(shared, total)
}

// SharedAccessRatio returns the fraction of accesses that touched r/w
// shared regions — the Table I "shared access" metric.
func (p *Process) SharedAccessRatio() float64 {
	return stats.Ratio(p.SharedAccesses.Value(), p.TotalAccesses.Value())
}

// Utilization returns touched pages / eagerly allocated pages (Table III).
func (p *Process) Utilization() float64 {
	var allocated uint64
	var touched uint64
	for _, r := range p.Regions {
		for _, s := range r.Segments {
			allocated += s.Pages()
			touched += s.TouchedPages()
		}
	}
	return stats.Ratio(touched, allocated)
}

// MaxSegments returns the high-water segment count across the system.
func (k *Kernel) MaxSegments() int { return k.SegMgr.MaxUsed }
