package core

import (
	"fmt"

	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/energy"
	"hybridvc/internal/mem"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/pipeline"
	"hybridvc/internal/segment"
	"hybridvc/internal/stats"
	"hybridvc/internal/synfilter"
	"hybridvc/internal/tlb"
	"hybridvc/internal/virt"
)

// VirtHybridConfig parameterizes the virtualized hybrid MMU (Section V).
type VirtHybridConfig struct {
	Hier   cache.HierarchyConfig
	DRAM   mem.DRAMConfig
	Energy energy.Model

	// SynTLBEntries sizes the per-core synonym TLB.
	SynTLBEntries int
	// WithSegmentCache enables the 128-entry gVA->MA segment cache that
	// skips the two-step segment translation (Section V-B).
	WithSegmentCache bool
	// IndexCacheBytes sizes each of the guest and host index caches.
	IndexCacheBytes int
}

// DefaultVirtHybridConfig returns the paper's virtualized configuration.
func DefaultVirtHybridConfig(n int) VirtHybridConfig {
	return VirtHybridConfig{
		Hier:             cache.DefaultHierarchyConfig(n),
		DRAM:             mem.DefaultDRAMConfig(),
		Energy:           energy.DefaultModel(),
		SynTLBEntries:    64,
		WithSegmentCache: true,
		IndexCacheBytes:  32 << 10,
	}
}

// virtSCEntry caches a direct gVA->MA translation for a 2 MiB granule,
// valid only when the granule is contiguous in machine memory (inside one
// guest segment and one host segment).
type virtSCEntry struct {
	valid   bool
	asid    addr.ASID
	granule uint64
	maBase  addr.PA
	perm    addr.Perm
	lru     uint64
}

// VirtSegCache is the virtualized segment cache: 128 entries of direct
// gVA->MA mappings at 2 MiB granularity, skipping the gPA step.
type VirtSegCache struct {
	sets [][]virtSCEntry
	mask uint64
	tick uint64
}

// NewVirtSegCache creates the SC with the given entry count (8-way).
func NewVirtSegCache(entries int) *VirtSegCache {
	const ways = 8
	if entries <= 0 || entries%ways != 0 || (entries/ways)&(entries/ways-1) != 0 {
		panic(fmt.Sprintf("core: invalid virt SC entries %d", entries))
	}
	nsets := entries / ways
	sets := make([][]virtSCEntry, nsets)
	backing := make([]virtSCEntry, entries)
	for i := range sets {
		sets[i], backing = backing[:ways], backing[ways:]
	}
	return &VirtSegCache{sets: sets, mask: uint64(nsets - 1)}
}

// Lookup returns the MA for (asid, gva) on a hit.
func (sc *VirtSegCache) Lookup(asid addr.ASID, gva addr.VA) (addr.PA, addr.Perm, bool) {
	sc.tick++
	set := sc.sets[gva.HugePage()&sc.mask]
	for i := range set {
		e := &set[i]
		if e.valid && e.asid == asid && e.granule == gva.HugePage() {
			e.lru = sc.tick
			off := uint64(gva) & (addr.HugePageSize - 1)
			return e.maBase + addr.PA(off), e.perm, true
		}
	}
	return 0, 0, false
}

// Fill installs a granule mapping.
func (sc *VirtSegCache) Fill(asid addr.ASID, gva addr.VA, maBase addr.PA, perm addr.Perm) {
	sc.tick++
	set := sc.sets[gva.HugePage()&sc.mask]
	slot := &set[0]
	for i := range set {
		if !set[i].valid {
			slot = &set[i]
			break
		}
		if set[i].lru < slot.lru {
			slot = &set[i]
		}
	}
	*slot = virtSCEntry{valid: true, asid: asid, granule: gva.HugePage(), maBase: maBase, perm: perm, lru: sc.tick}
}

// FlushAll empties the SC.
func (sc *VirtSegCache) FlushAll() {
	for si := range sc.sets {
		for wi := range sc.sets[si] {
			sc.sets[si][wi] = virtSCEntry{}
		}
	}
}

// VirtHybridMMU is the hybrid virtual caching MMU for a processor running
// one or more virtual machines: guest+host synonym filters classify
// accesses, non-synonyms run the whole hierarchy as VMID-extended ASID +
// gVA (so VMs can never hit each other's virtually named lines), and LLC
// misses perform two-step delayed segment translation (guest gVA->gPA,
// host gPA->MA), short-cut by the direct gVA->MA segment cache. Like the
// native MMU it is its own pipeline FrontEnd and Backend.
type VirtHybridMMU struct {
	*pipeline.Engine
	cfg VirtHybridConfig
	// vm is the primary VM (the first registered).
	vm  *virt.VM
	vms map[uint32]*virt.VM

	synTLB  []*tlb.TLB
	walkers map[uint32]*virt.Walker2D

	guestXlate map[uint32]*segment.Translator
	hostXlate  *segment.Translator
	sc         *VirtSegCache

	pairs map[addr.ASID]*synfilter.Pair

	// TrueSynonymAccesses counts candidates the synonym TLB confirmed as
	// synonyms.
	TrueSynonymAccesses stats.Counter
}

// NewVirtHybridMMU builds the virtualized hybrid MMU over one VM. Use
// AddVM to consolidate more VMs onto the same hardware.
func NewVirtHybridMMU(cfg VirtHybridConfig, vm *virt.VM, hv *virt.Hypervisor) *VirtHybridMMU {
	if cfg.SynTLBEntries == 0 {
		cfg.SynTLBEntries = 64
	}
	if cfg.IndexCacheBytes == 0 {
		cfg.IndexCacheBytes = 32 << 10
	}
	m := &VirtHybridMMU{
		cfg:        cfg,
		vm:         vm,
		vms:        make(map[uint32]*virt.VM),
		walkers:    make(map[uint32]*virt.Walker2D),
		guestXlate: make(map[uint32]*segment.Translator),
		pairs:      make(map[addr.ASID]*synfilter.Pair),
	}
	m.Engine = pipeline.NewEngine(NewBase(cfg.Hier, cfg.DRAM, cfg.Energy), m, nil, m)
	for i := 0; i < cfg.Hier.NumCores; i++ {
		m.synTLB = append(m.synTLB, tlb.New(tlb.Config{
			Name: fmt.Sprintf("vsyn-tlb[%d]", i), Entries: cfg.SynTLBEntries, Ways: 4, Latency: 1,
		}))
	}
	hIC := segment.NewIndexCache(cfg.IndexCacheBytes)
	tcfg := m.translatorConfig()
	m.hostXlate = segment.NewTranslator(tcfg, nil, hIC, hv.HostSegMgr)
	hv.HostSegMgr.OnRebuild = hIC.Flush
	if cfg.WithSegmentCache {
		m.sc = NewVirtSegCache(segment.SegCacheEntries)
	}
	m.AddVM(vm)
	return m
}

// translatorConfig builds the shared delayed-translation latencies.
func (m *VirtHybridMMU) translatorConfig() segment.TranslatorConfig {
	tcfg := segment.DefaultTranslatorConfig()
	tcfg.MemLatency = func(pa addr.PA) uint64 { return m.DRAM.Access(pa) }
	return tcfg
}

// AddVM consolidates another virtual machine onto this processor: its
// guest kernel gets its own index-cached segment translator and 2D walker
// and this MMU becomes its shootdown sink.
func (m *VirtHybridMMU) AddVM(vm *virt.VM) {
	m.vms[vm.VMID] = vm
	m.walkers[vm.VMID] = virt.NewWalker2D(vm, true)
	gIC := segment.NewIndexCache(m.cfg.IndexCacheBytes)
	m.guestXlate[vm.VMID] = segment.NewTranslator(m.translatorConfig(), nil, gIC, vm.Kernel.SegMgr)
	vm.Kernel.SegMgr.OnRebuild = gIC.Flush
	vm.Kernel.AttachSink(m)
}

// vmOf resolves the VM owning an address space via the ASID's VMID.
func (m *VirtHybridMMU) vmOf(asid addr.ASID) *virt.VM {
	if vm, ok := m.vms[asid.VMID()]; ok {
		return vm
	}
	return m.vm
}

// Name implements MemSystem.
func (m *VirtHybridMMU) Name() string {
	if m.sc != nil {
		return "virt-hybrid+sc"
	}
	return "virt-hybrid"
}

// SC exposes the virtualized segment cache (nil when disabled).
func (m *VirtHybridMMU) SC() *VirtSegCache { return m.sc }

// pair returns the guest+host filter pair for a process.
func (m *VirtHybridMMU) pair(p *osmodel.Process) *synfilter.Pair {
	pr, ok := m.pairs[p.ASID]
	if !ok {
		pr = synfilter.NewPair(p.Filter, m.vmOf(p.ASID).HostFilter)
		m.pairs[p.ASID] = pr
	}
	return pr
}

// timed2DWalk performs a nested walk, charging each of its machine-address
// reads through the cache hierarchy.
func (m *VirtHybridMMU) timed2DWalk(core int, proc *osmodel.Process, gva addr.VA) (virt.Walk2DResult, uint64) {
	m.Acc.Access(energy.PageWalk, 1)
	res := m.walkers[proc.ASID.VMID()].Walk(proc, gva)
	m.Acc.Access(energy.NestedTLB, uint64(res.NestedTLBHits))
	var lat uint64
	for _, ma := range res.Path {
		l, _ := m.PhysAccess(core, cache.Read, ma, addr.PermRO)
		lat += l
	}
	m.Counts.Walk(len(res.Path))
	return res, lat
}

// Route implements pipeline.FrontEnd: Figure 1 extended with Section V.
func (m *VirtHybridMMU) Route(req *Request, res *Result) pipeline.Decision {
	m.Acc.Access(energy.SynonymFilter, 2) // both guest and host filters
	candidate := m.pair(req.Proc).IsCandidate(req.VA)
	m.Counts.Filter(candidate)
	if candidate {
		return m.routeSynonym(req, res)
	}
	return routeVirtual(m.Engine, req, res)
}

// routeSynonym: TLB (gVA->MA) before L1, filled by 2D walks.
func (m *VirtHybridMMU) routeSynonym(req *Request, res *Result) pipeline.Decision {
	st := m.synTLB[req.Core]
	m.Acc.Access(energy.SynonymTLB, 1)
	res.Latency += st.Config().Latency

	e, hit := st.Lookup(req.Proc.ASID, req.VA.Page())
	m.Counts.TLB(pipeline.TLBSynonym, hit)
	if !hit {
		wres, lat := m.timed2DWalk(req.Core, req.Proc, req.VA.PageAligned())
		res.Latency += lat
		if !wres.OK {
			return m.Fault(req, res)
		}
		shared := wres.GuestPTE.Shared || wres.HostShared
		ne := tlb.Entry{
			ASID: req.Proc.ASID, VPN: req.VA.Page(), PFN: wres.MA.Frame(),
			Perm: wres.GuestPTE.Perm, Shared: shared, NonSynonym: !shared,
		}
		st.Insert(ne)
		e = &ne
	}
	if e.NonSynonym {
		m.Counts.FalsePositive()
		return routeVirtual(m.Engine, req, res)
	}
	m.TrueSynonymAccesses.Inc()
	if req.Kind == cache.Write && !e.Perm.AllowsWrite() {
		return m.Fault(req, res)
	}
	ma := addr.FrameToPA(e.PFN) + addr.PA(req.VA.PageOffset())
	return pipeline.GoPhysical(ma, e.Perm)
}

// Finish implements pipeline.Backend: two-step delayed segment
// translation after LLC misses, DRAM, and writeback translation.
func (m *VirtHybridMMU) Finish(req *Request, res *Result, hres *cache.AccessResult) {
	if hres.LLCMiss {
		res.LLCMiss = true
		ma, lat, ok := m.delayed2D(req.Core, req.Proc, req.VA, false)
		res.Latency += lat
		if !ok {
			fl, _ := m.HandleFault(req.Proc, req.VA, req.Kind == cache.Write)
			res.Latency += fl
			res.Fault = true
			return
		}
		res.Latency += m.DRAM.Access(ma)
	}
	for _, wb := range hres.Writebacks {
		if !wb.Synonym {
			if p := m.vmOf(wb.ASID).Kernel.Process(wb.ASID); p != nil {
				m.delayed2D(req.Core, p, addr.VA(wb.Addr), true)
			}
		}
	}
}

// delayed2D translates gVA -> MA after an LLC miss: SC first, then the
// guest and host segment walks. wb marks writeback translations.
func (m *VirtHybridMMU) delayed2D(core int, proc *osmodel.Process, gva addr.VA, wb bool) (addr.PA, uint64, bool) {
	var lat uint64
	if m.sc != nil {
		m.Acc.Access(energy.SegmentCache, 1)
		lat += 2
		if ma, _, ok := m.sc.Lookup(proc.ASID, gva); ok {
			m.Counts.Delayed(wb, true, 0, false)
			return ma, lat, true
		}
	}
	// Guest step: gVA -> gPA.
	g := m.guestXlate[proc.ASID.VMID()].Translate(proc.ASID, gva)
	m.Acc.Access(energy.IndexCache, uint64(g.ICProbes))
	m.Acc.Access(energy.SegmentTable, 1)
	lat += g.Latency
	if g.Fault {
		m.Counts.Delayed(wb, false, g.ICProbes, true)
		return 0, lat, false
	}
	gpa := addr.GPA(g.PA)
	// Host step: gPA -> MA.
	h := m.hostXlate.Translate(hostASIDOf(proc.ASID.VMID()), addr.VA(gpa))
	m.Acc.Access(energy.IndexCache, uint64(h.ICProbes))
	m.Acc.Access(energy.SegmentTable, 1)
	lat += h.Latency
	m.Counts.Delayed(wb, false, g.ICProbes+h.ICProbes, h.Fault)
	if h.Fault {
		return 0, lat, false
	}
	ma := h.PA
	if m.sc != nil {
		m.fillSC(proc, gva, g.Seg, h.Seg, ma)
	}
	return ma, lat, true
}

// fillSC installs a direct gVA->MA granule entry when the whole 2 MiB
// granule is contiguous through both segment mappings.
func (m *VirtHybridMMU) fillSC(proc *osmodel.Process, gva addr.VA, gseg, hseg *segment.Segment, ma addr.PA) {
	asid := proc.ASID
	gStart := gva & ^addr.VA(addr.HugePageSize-1)
	gEnd := gStart + addr.HugePageSize - 1
	if !gseg.Contains(asid, gStart) || !gseg.Contains(asid, gEnd) {
		return
	}
	hostASID := hostASIDOf(asid.VMID())
	gpaStart := addr.VA(gseg.Translate(gStart))
	gpaEnd := addr.VA(gseg.Translate(gEnd))
	if !hseg.Contains(hostASID, gpaStart) || !hseg.Contains(hostASID, gpaEnd) {
		return
	}
	maBase := hseg.Translate(gpaStart)
	off := uint64(gva) & (addr.HugePageSize - 1)
	if maBase+addr.PA(off) != ma {
		return // non-contiguous composition; stay conservative
	}
	m.sc.Fill(asid, gva, maBase, fillPerm(proc, gva))
}

// hostASIDOf mirrors virt's host pseudo-ASID convention.
func hostASIDOf(vmid uint32) addr.ASID { return addr.MakeASID(vmid, 0) }

// --- osmodel.ShootdownSink ---

// TLBShootdown implements the sink.
func (m *VirtHybridMMU) TLBShootdown(asid addr.ASID, vpn uint64) {
	for _, st := range m.synTLB {
		st.Shootdown(asid, vpn)
	}
	if m.sc != nil {
		m.sc.FlushAll()
	}
}

// FlushPage implements the sink.
func (m *VirtHybridMMU) FlushPage(page addr.Name) {
	m.Hier.FlushPage(page)
}

// SetPagePerm implements the sink.
func (m *VirtHybridMMU) SetPagePerm(page addr.Name, perm addr.Perm) {
	m.Hier.SetPagePerm(page, perm)
}

// FilterUpdate implements the sink: the pair probes the guest and host
// filters themselves, so nothing needs reloading.
func (m *VirtHybridMMU) FilterUpdate(addr.ASID) {}

// FlushASID implements the sink.
func (m *VirtHybridMMU) FlushASID(asid addr.ASID) {
	m.Hier.FlushASID(asid)
	for _, st := range m.synTLB {
		st.FlushASID(asid)
	}
	if m.sc != nil {
		m.sc.FlushAll()
	}
	delete(m.pairs, asid)
}
