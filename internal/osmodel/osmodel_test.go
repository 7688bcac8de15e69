package osmodel

import (
	"testing"

	"hybridvc/internal/addr"
)

func newKernel(t *testing.T) *Kernel {
	t.Helper()
	return NewKernel(Config{PhysBytes: 1 << 30})
}

// recordingSink records maintenance traffic for assertions.
type recordingSink struct {
	shootdowns    []uint64
	flushedPages  []addr.Name
	permUpdates   []addr.Name
	filterUpdates []addr.ASID
	flushedASIDs  []addr.ASID
}

func (r *recordingSink) TLBShootdown(asid addr.ASID, vpn uint64) {
	r.shootdowns = append(r.shootdowns, vpn)
}
func (r *recordingSink) FlushPage(p addr.Name) { r.flushedPages = append(r.flushedPages, p) }
func (r *recordingSink) SetPagePerm(p addr.Name, _ addr.Perm) {
	r.permUpdates = append(r.permUpdates, p)
}
func (r *recordingSink) FilterUpdate(a addr.ASID) { r.filterUpdates = append(r.filterUpdates, a) }
func (r *recordingSink) FlushASID(a addr.ASID)    { r.flushedASIDs = append(r.flushedASIDs, a) }

func TestNewProcessDistinctASIDs(t *testing.T) {
	k := newKernel(t)
	p1, err := k.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := k.NewProcess()
	if p1.ASID == p2.ASID {
		t.Fatal("ASIDs collide")
	}
	if k.Process(p1.ASID) != p1 || k.Process(p2.ASID) != p2 {
		t.Error("process registry broken")
	}
	if p1.ASID.VMID() != 0 {
		t.Error("native process has nonzero VMID")
	}
}

func TestVMIDInASID(t *testing.T) {
	k := NewKernel(Config{PhysBytes: 1 << 24, VMID: 5})
	p, _ := k.NewProcess()
	if p.ASID.VMID() != 5 {
		t.Errorf("VMID = %d", p.ASID.VMID())
	}
}

func TestMmapEagerBacksEverything(t *testing.T) {
	k := newKernel(t)
	p, _ := k.NewProcess()
	va, err := p.Mmap(1<<20, addr.PermRW, MmapOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Every page must be mapped immediately, backed by one segment.
	for off := uint64(0); off < 1<<20; off += addr.PageSize {
		if _, ok := p.PT.Lookup(va + addr.VA(off)); !ok {
			t.Fatalf("page %#x unmapped after eager mmap", off)
		}
	}
	r := p.FindRegion(va)
	if r == nil || len(r.Segments) != 1 {
		t.Fatalf("region: %+v", r)
	}
	s := r.Segments[0]
	if s.Length != 1<<20 || s.Base != va {
		t.Errorf("segment: %v", s)
	}
	// The segment translation must agree with the page tables.
	pa1, _ := p.PT.Translate(va + 0x5123)
	if pa2 := s.Translate(va + 0x5123); pa1 != pa2 {
		t.Errorf("segment/PT disagree: %#x vs %#x", uint64(pa1), uint64(pa2))
	}
}

func TestMmapDemandPaging(t *testing.T) {
	k := newKernel(t)
	p, _ := k.NewProcess()
	va, err := p.Mmap(1<<20, addr.PermRW, MmapOpts{Demand: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.PT.Lookup(va); ok {
		t.Fatal("demand page mapped before touch")
	}
	if !p.HandleFault(va+0x123, false) {
		t.Fatal("legal fault rejected")
	}
	if _, ok := p.PT.Lookup(va); !ok {
		t.Fatal("fault did not map page")
	}
	if k.PageFaults.Value() != 1 {
		t.Errorf("fault count = %d", k.PageFaults.Value())
	}
	// A fault outside every region is illegal.
	if p.HandleFault(0x7fff_0000_0000, false) {
		t.Error("wild fault accepted")
	}
	// A second fault on the same page is spurious (already mapped, RW).
	if p.HandleFault(va+0x200, false) {
		t.Error("spurious fault accepted")
	}
}

func TestMmapFragmentationFallback(t *testing.T) {
	// Fragment physical memory so no single extent can back the request;
	// eager backing must split into multiple segments.
	k := NewKernel(Config{PhysBytes: 1 << 22}) // 1024 frames
	p, _ := k.NewProcess()
	// Grab all remaining memory, then free scattered 50-frame holes so
	// the largest contiguous run is 50 frames.
	frames := k.Alloc.FreeFrames()
	base, ok := k.Alloc.AllocContiguous(frames)
	if !ok {
		t.Fatal("setup alloc failed")
	}
	for off := uint64(0); off+100 <= frames; off += 100 {
		k.Alloc.Free(base+addr.PA(off*addr.PageSize), 50)
	}
	va, err := p.Mmap(150*addr.PageSize, addr.PermRW, MmapOpts{})
	if err != nil {
		t.Fatalf("fragmented mmap failed: %v", err)
	}
	r := p.FindRegion(va)
	if len(r.Segments) < 2 {
		t.Errorf("expected multiple segments, got %d", len(r.Segments))
	}
	for off := uint64(0); off < 150*addr.PageSize; off += addr.PageSize {
		if _, ok := p.PT.Lookup(va + addr.VA(off)); !ok {
			t.Fatalf("page %#x unmapped", off)
		}
	}
}

func TestShareAnonymousCreatesSynonyms(t *testing.T) {
	k := newKernel(t)
	sink := &recordingSink{}
	k.AttachSink(sink)
	p1, _ := k.NewProcess()
	p2, _ := k.NewProcess()
	vas, err := k.ShareAnonymous([]*Process{p1, p2}, 8*addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Both processes map the same physical frames.
	pa1, ok1 := p1.PT.Translate(vas[0])
	pa2, ok2 := p2.PT.Translate(vas[1])
	if !ok1 || !ok2 || pa1 != pa2 {
		t.Fatalf("shared mapping mismatch: %#x %#x", uint64(pa1), uint64(pa2))
	}
	// PTEs carry the shared bit.
	pte, _ := p1.PT.Lookup(vas[0])
	if !pte.Shared {
		t.Error("shared bit missing")
	}
	// Both filters flag the range; the filter update was broadcast.
	if !p1.Filter.IsCandidate(vas[0]) || !p2.Filter.IsCandidate(vas[1]) {
		t.Error("filters not updated")
	}
	if len(sink.filterUpdates) != 2 {
		t.Errorf("filter updates = %d", len(sink.filterUpdates))
	}
	// Region accounting feeds Table I.
	if p1.SharedAreaRatio() != 1.0 {
		t.Errorf("shared area ratio = %f", p1.SharedAreaRatio())
	}
}

func TestMarkSharedTransition(t *testing.T) {
	k := newKernel(t)
	sink := &recordingSink{}
	k.AttachSink(sink)
	p, _ := k.NewProcess()
	va, _ := p.Mmap(4*addr.PageSize, addr.PermRW, MmapOpts{})
	if p.Filter.IsCandidate(va) {
		t.Fatal("private region flagged before transition")
	}
	if err := k.MarkShared(p, va, 4*addr.PageSize); err != nil {
		t.Fatal(err)
	}
	if !p.Filter.IsCandidate(va) {
		t.Error("filter not updated")
	}
	pte, _ := p.PT.Lookup(va)
	if !pte.Shared {
		t.Error("PTE shared bit not set")
	}
	// The transition must flush the affected pages (4 pages) and shoot
	// down their translations.
	if len(sink.flushedPages) != 4 || len(sink.shootdowns) != 4 {
		t.Errorf("flushes=%d shootdowns=%d, want 4,4",
			len(sink.flushedPages), len(sink.shootdowns))
	}
	if err := k.MarkShared(p, 0xdead_000, addr.PageSize); err == nil {
		t.Error("MarkShared of unmapped range succeeded")
	}
}

func TestRebuildFilterDropsStaleRanges(t *testing.T) {
	k := newKernel(t)
	p, _ := k.NewProcess()
	va1, _ := p.Mmap(4*addr.PageSize, addr.PermRW, MmapOpts{})
	va2, _ := p.Mmap(4*addr.PageSize, addr.PermRW, MmapOpts{})
	k.MarkShared(p, va1, 4*addr.PageSize)
	k.MarkShared(p, va2, 4*addr.PageSize)
	// Range 1 goes private again: drop it from the live list and rebuild.
	p.SynonymRanges = p.SynonymRanges[1:]
	k.RebuildFilter(p)
	if !p.Filter.IsCandidate(va2) {
		t.Error("live range lost")
	}
	// va1 may still false-positive only if it shares granule bits with
	// va2 — with distinct granules it must be gone.
	if uint64(va1)>>15 != uint64(va2)>>15 && p.Filter.IsCandidate(va1) {
		t.Error("stale range survived rebuild")
	}
}

func TestContentShareAndCoW(t *testing.T) {
	k := newKernel(t)
	sink := &recordingSink{}
	k.AttachSink(sink)
	p1, _ := k.NewProcess()
	p2, _ := k.NewProcess()
	va1, _ := p1.Mmap(addr.PageSize, addr.PermRW, MmapOpts{})
	va2, _ := p2.Mmap(addr.PageSize, addr.PermRW, MmapOpts{})

	freeBefore := k.Alloc.FreeFrames()
	if err := k.ContentShare(p2, va2, p1, va1); err != nil {
		t.Fatal(err)
	}
	// Deduplication frees one frame.
	if k.Alloc.FreeFrames() != freeBefore+1 {
		t.Errorf("free frames %d -> %d, want +1", freeBefore, k.Alloc.FreeFrames())
	}
	// Both map the same frame, read-only, and are NOT synonym-marked.
	pa1, _ := p1.PT.Translate(va1)
	pa2, _ := p2.PT.Translate(va2)
	if pa1 != pa2 {
		t.Fatal("content share did not alias frames")
	}
	pte1, _ := p1.PT.Lookup(va1)
	pte2, _ := p2.PT.Lookup(va2)
	if pte1.Perm != addr.PermRO || pte2.Perm != addr.PermRO {
		t.Error("pages not read-only")
	}
	if p1.Filter.IsCandidate(va1) || p2.Filter.IsCandidate(va2) {
		t.Error("r/o content sharing polluted the synonym filters")
	}
	if len(sink.permUpdates) == 0 {
		t.Error("no cached-permission updates issued")
	}

	// A write breaks CoW: p2 gets a fresh private r/w frame.
	if !p2.HandleFault(va2, true) {
		t.Fatal("CoW fault rejected")
	}
	pa2after, _ := p2.PT.Translate(va2)
	if pa2after == pa1 {
		t.Error("CoW did not copy")
	}
	pte2, _ = p2.PT.Lookup(va2)
	if pte2.Perm != addr.PermRW {
		t.Error("CoW page not r/w")
	}
	if k.CoWFaults.Value() != 1 {
		t.Errorf("CoW faults = %d", k.CoWFaults.Value())
	}
}

func TestMapDMAIsSynonym(t *testing.T) {
	k := newKernel(t)
	p, _ := k.NewProcess()
	va, err := k.MapDMA(p, 16*addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Filter.IsCandidate(va) {
		t.Error("DMA pages not synonym-marked")
	}
	pte, _ := p.PT.Lookup(va)
	if !pte.Shared {
		t.Error("DMA PTE not shared")
	}
}

func TestFragmentSegmentsInjection(t *testing.T) {
	k := newKernel(t)
	p, _ := k.NewProcess()
	va, _ := p.Mmap(100*addr.PageSize, addr.PermRW, MmapOpts{})
	if got := len(p.FindRegion(va).Segments); got != 1 {
		t.Fatalf("segments before = %d", got)
	}
	if err := k.FragmentSegments(p, 10); err != nil {
		t.Fatal(err)
	}
	if got := len(p.FindRegion(va).Segments); got != 10 {
		t.Fatalf("segments after = %d, want 10", got)
	}
	// Page tables must still translate every page consistently with the
	// owning segment.
	for off := uint64(0); off < 100*addr.PageSize; off += addr.PageSize {
		a := va + addr.VA(off)
		paPT, ok := p.PT.Translate(a)
		if !ok {
			t.Fatalf("page %#x lost", off)
		}
		seg, ok := k.SegMgr.LookupSoft(p.ASID, a)
		if !ok || seg.Translate(a) != paPT {
			t.Fatalf("segment/PT mismatch at %#x", off)
		}
	}
}

func TestUtilizationAccounting(t *testing.T) {
	k := newKernel(t)
	p, _ := k.NewProcess()
	va, _ := p.Mmap(10*addr.PageSize, addr.PermRW, MmapOpts{})
	r := p.FindRegion(va)
	for i := 0; i < 5; i++ {
		p.Touch(va+addr.VA(i*addr.PageSize), r)
	}
	if u := p.Utilization(); u != 0.5 {
		t.Errorf("utilization = %f, want 0.5", u)
	}
	if p.TotalAccesses.Value() != 5 || p.SharedAccesses.Value() != 0 {
		t.Error("access accounting wrong")
	}
}

func TestExitReleasesResources(t *testing.T) {
	k := newKernel(t)
	free0 := k.Alloc.FreeFrames()
	p, _ := k.NewProcess()
	va, _ := p.Mmap(64*addr.PageSize, addr.PermRW, MmapOpts{})
	_ = va
	used := k.SegMgr.Table.Used()
	if used == 0 {
		t.Fatal("no segments allocated")
	}
	k.Exit(p)
	if k.SegMgr.Table.Used() != 0 {
		t.Error("segments leaked on exit")
	}
	if k.Alloc.FreeFrames() != free0 {
		t.Errorf("frames: %d -> %d", free0, k.Alloc.FreeFrames())
	}
	if k.Process(p.ASID) != nil {
		t.Error("process registry retains exited process")
	}
}

func TestMmapErrors(t *testing.T) {
	k := newKernel(t)
	p, _ := k.NewProcess()
	if _, err := p.Mmap(0, addr.PermRW, MmapOpts{}); err == nil {
		t.Error("zero-length mmap succeeded")
	}
	// Exhaust memory: a too-large eager mmap must fail.
	if _, err := p.Mmap(1<<31, addr.PermRW, MmapOpts{}); err == nil {
		t.Error("oversized mmap succeeded")
	}
}
