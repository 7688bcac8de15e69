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
	"hybridvc/internal/tlb"
)

// DelayedKind selects the delayed translation mechanism used after LLC
// misses for non-synonym addresses.
type DelayedKind int

const (
	// DelayedPageTLB uses a conventional fixed-granularity TLB backed by
	// the hardware page walker (Section IV-A1).
	DelayedPageTLB DelayedKind = iota
	// DelayedSegments uses the scalable many-segment translation: index
	// tree + index cache + segment table, optionally fronted by the
	// segment cache (Section IV-C).
	DelayedSegments
)

// HybridConfig parameterizes the hybrid virtual caching MMU.
type HybridConfig struct {
	Hier   cache.HierarchyConfig
	DRAM   mem.DRAMConfig
	Energy energy.Model

	// SynTLBEntries sizes the per-core synonym TLB (paper: 64, 4-way).
	SynTLBEntries int
	// Delayed picks the post-LLC translation mechanism.
	Delayed DelayedKind
	// DelayedTLBEntries sizes the delayed TLB (DelayedPageTLB only).
	DelayedTLBEntries int
	// WithSegmentCache enables the 128-entry SC (DelayedSegments only).
	WithSegmentCache bool
	// IndexCacheBytes sizes the index cache (default 32 KiB).
	IndexCacheBytes int
	// FilterBypass models an Enigma-style organization: no synonym
	// filter, every access treated as non-synonym (sharing must be
	// handled by coarse first-level segments, outside this model's
	// workloads).
	FilterBypass bool
	// FPRebuildThreshold enables the adaptive filter rebuild policy
	// (Section III-B: "if such changes ... generate too many false
	// positives, the OS can reconstruct the filter"): when the
	// false-positive fraction of an address space's accesses within a
	// window exceeds this threshold, the MMU asks the OS to rebuild its
	// filter. 0 disables the policy.
	FPRebuildThreshold float64
	// FPWindow is the per-ASID access window for the policy (default 16384).
	FPWindow uint64
	// ParallelDelayed starts delayed translation in parallel with the LLC
	// access instead of serially after the miss (Section IV-C): the
	// translation latency hides behind the LLC lookup, but the delayed
	// structures are probed on every LLC access reaching them from an L2
	// miss — more energy for less latency. The paper (and the default)
	// uses serial access to save energy.
	ParallelDelayed bool
}

// DefaultHybridConfig returns the paper's configuration for n cores with
// many-segment delayed translation and the segment cache.
func DefaultHybridConfig(n int) HybridConfig {
	return HybridConfig{
		Hier:             cache.DefaultHierarchyConfig(n),
		DRAM:             mem.DefaultDRAMConfig(),
		Energy:           energy.DefaultModel(),
		SynTLBEntries:    64,
		Delayed:          DelayedSegments,
		WithSegmentCache: true,
		IndexCacheBytes:  32 << 10,
	}
}

// delayedTLBLatency returns the lookup latency of a delayed TLB by size:
// delayed TLBs are off the critical core-to-L1 path, so they may be large,
// but bigger arrays are slower.
func delayedTLBLatency(entries int) uint64 {
	switch {
	case entries <= 1024:
		return 7
	case entries <= 2048:
		return 8
	case entries <= 4096:
		return 9
	case entries <= 8192:
		return 10
	case entries <= 16384:
		return 12
	case entries <= 32768:
		return 14
	default:
		return 16
	}
}

// DelayedTLBConfig returns the geometry of a delayed TLB with the given
// number of entries: 8 ways, and the latency its size implies.
func DelayedTLBConfig(entries int) tlb.Config {
	return tlb.Config{Name: "delayed-tlb", Entries: entries, Ways: 8, Latency: delayedTLBLatency(entries)}
}

// HybridMMU is the hybrid virtual caching memory system. It is wired as
// pipeline stages: HybridMMU itself is the FrontEnd (synonym filter,
// synonym TLB path, permission faults) and the Backend (delayed
// translation, writeback translation) around the shared engine.
type HybridMMU struct {
	*pipeline.Engine
	cfg    HybridConfig
	kernel *osmodel.Kernel

	synTLB []*tlb.TLB

	// Page-granularity delayed translation.
	delayedTLB *tlb.TLB
	// Segment-based delayed translation.
	translator *segment.Translator

	// fpWindow tracks per-ASID (accesses, false positives) for the
	// adaptive filter rebuild policy.
	fpWindow map[addr.ASID]*fpStats

	// TrueSynonymAccesses counts candidates the synonym TLB confirmed as
	// synonyms. A candidate whose walk dead-ends in a fault is neither
	// true nor false, so the pipeline counts cannot derive it.
	TrueSynonymAccesses stats.Counter
	// FilterRebuilds counts adaptive filter reconstructions triggered by
	// excessive false positives.
	FilterRebuilds stats.Counter
}

// fpStats is one ASID's false-positive window.
type fpStats struct {
	accesses uint64
	fps      uint64
}

// NewHybridMMU builds the hybrid MMU over the given kernel and registers
// itself as the kernel's shootdown sink.
func NewHybridMMU(cfg HybridConfig, k *osmodel.Kernel) *HybridMMU {
	if cfg.SynTLBEntries == 0 {
		cfg.SynTLBEntries = 64
	}
	if cfg.IndexCacheBytes == 0 {
		cfg.IndexCacheBytes = 32 << 10
	}
	if cfg.DelayedTLBEntries == 0 {
		cfg.DelayedTLBEntries = 1024
	}
	if cfg.FPWindow == 0 {
		cfg.FPWindow = 16384
	}
	if cfg.Delayed == DelayedPageTLB {
		// Larger delayed TLB arrays cost more energy per access.
		cfg.Energy.PerAccess[energy.DelayedTLB] = energy.DelayedTLBEnergy(cfg.DelayedTLBEntries)
	}
	m := &HybridMMU{
		cfg:      cfg,
		kernel:   k,
		fpWindow: make(map[addr.ASID]*fpStats),
	}
	m.Engine = pipeline.NewEngine(NewBase(cfg.Hier, cfg.DRAM, cfg.Energy), m, nil, m)
	for i := 0; i < cfg.Hier.NumCores; i++ {
		m.synTLB = append(m.synTLB, tlb.New(tlb.Config{
			Name: fmt.Sprintf("syn-tlb[%d]", i), Entries: cfg.SynTLBEntries, Ways: 4, Latency: 1,
		}))
	}
	switch cfg.Delayed {
	case DelayedPageTLB:
		m.delayedTLB = tlb.New(DelayedTLBConfig(cfg.DelayedTLBEntries))
	case DelayedSegments:
		var sc *segment.SegCache
		if cfg.WithSegmentCache {
			sc = segment.NewSegCache(segment.SegCacheEntries)
		}
		ic := segment.NewIndexCache(cfg.IndexCacheBytes)
		tcfg := segment.DefaultTranslatorConfig()
		tcfg.MemLatency = func(pa addr.PA) uint64 { return m.DRAM.Access(pa) }
		m.translator = segment.NewTranslator(tcfg, sc, ic, k.SegMgr)
		k.SegMgr.OnRebuild = ic.Flush
	}
	k.AttachSink(m)
	return m
}

// Name implements MemSystem.
func (m *HybridMMU) Name() string {
	switch {
	case m.cfg.FilterBypass && m.cfg.Delayed == DelayedPageTLB:
		return fmt.Sprintf("enigma-dtlb%d", m.cfg.DelayedTLBEntries)
	case m.cfg.Delayed == DelayedPageTLB:
		return fmt.Sprintf("hybrid-dtlb%d", m.cfg.DelayedTLBEntries)
	case m.cfg.WithSegmentCache:
		return "hybrid-manyseg+sc"
	default:
		return "hybrid-manyseg"
	}
}

// Translator exposes the segment translator (nil for page-TLB mode).
func (m *HybridMMU) Translator() *segment.Translator { return m.translator }

// DelayedTLB exposes the delayed TLB (nil for segment mode).
func (m *HybridMMU) DelayedTLB() *tlb.TLB { return m.delayedTLB }

// SynTLB exposes core i's synonym TLB.
func (m *HybridMMU) SynTLB(core int) *tlb.TLB { return m.synTLB[core] }

// fillPerm returns the permission a fill of va records in the cache tag:
// the leaf permission in proc's page tables, or PermNone when the page is
// unmapped. The page tables are its only copy.
func fillPerm(proc *osmodel.Process, va addr.VA) addr.Perm {
	pte, ok := proc.PT.Lookup(va.PageAligned())
	if !ok {
		return addr.PermNone
	}
	return pte.Perm
}

// Route implements pipeline.FrontEnd: the pre-L1 part of the Figure 1
// flow. The synonym filter probe overlaps the L1 access for non-synonym
// addresses, so it adds no latency; only energy.
func (m *HybridMMU) Route(req *Request, res *Result) pipeline.Decision {
	candidate := false
	if !m.cfg.FilterBypass {
		m.Acc.Access(energy.SynonymFilter, 1)
		candidate = req.Proc.Filter.IsCandidate(req.VA)
		m.Counts.Filter(candidate)
		if m.cfg.FPRebuildThreshold > 0 {
			m.stepRebuildPolicy(req.Proc)
		}
	}
	if candidate {
		return m.routeSynonym(req, res)
	}
	return routeVirtual(m.Engine, req, res)
}

// routeSynonym handles synonym candidates: TLB before L1 (Section III-A).
func (m *HybridMMU) routeSynonym(req *Request, res *Result) pipeline.Decision {
	st := m.synTLB[req.Core]
	m.Acc.Access(energy.SynonymTLB, 1)
	res.Latency += st.Config().Latency

	e, hit := st.Lookup(req.Proc.ASID, req.VA.Page())
	m.Counts.TLB(pipeline.TLBSynonym, hit)
	if !hit {
		leaf, lat, ok := m.TimedWalk(req.Core, req.Proc, req.VA.PageAligned())
		res.Latency += lat
		if !ok {
			return m.Fault(req, res)
		}
		ne := tlb.Entry{
			ASID: req.Proc.ASID, VPN: req.VA.Page(), PFN: leaf.FrameFor4K(req.VA),
			Perm: leaf.Perm, Shared: leaf.Shared, NonSynonym: !leaf.Shared,
		}
		st.Insert(ne)
		e = &ne
	}

	if e.NonSynonym {
		// Filter false positive: the TLB entry corrects it; proceed with
		// ASID+VA (the L1 block accessed with ASID+VA is used).
		m.Counts.FalsePositive()
		if w := m.fpWindow[req.Proc.ASID]; w != nil {
			w.fps++
		}
		return routeVirtual(m.Engine, req, res)
	}
	m.TrueSynonymAccesses.Inc()

	// Permission check before the cache access. A CoW break remaps the
	// page privately and shoots the stale entry down, so the re-run
	// translates afresh.
	if req.Kind == cache.Write && !e.Perm.AllowsWrite() {
		return m.Fault(req, res)
	}

	pa := addr.FrameToPA(e.PFN) + addr.PA(req.VA.PageOffset())
	return pipeline.GoPhysical(pa, e.Perm)
}

// routeVirtual handles non-synonym accesses of the hybrid organizations:
// an unmapped page or a write to a read-only one faults through e, whose
// front end runs the re-run; otherwise the reference goes as ASID+VA (a
// VMID-extended ASID and gVA under virtualization) through the whole
// hierarchy.
func routeVirtual(e *pipeline.Engine, req *Request, res *Result) pipeline.Decision {
	perm := fillPerm(req.Proc, req.VA)
	if perm == addr.PermNone || req.Kind == cache.Write && !perm.AllowsWrite() {
		return e.Fault(req, res)
	}
	return pipeline.GoVirtual(perm)
}

// Finish implements pipeline.Backend: delayed translation after the LLC,
// DRAM, and writeback translation.
func (m *HybridMMU) Finish(req *Request, res *Result, hres *cache.AccessResult) {
	if m.cfg.ParallelDelayed && hres.HitLevel == 3 {
		// Parallel mode: the translation was launched alongside the LLC
		// lookup; the hit makes its result unnecessary, but the energy
		// (and structure state) is spent.
		m.delayedTranslate(req.Core, req.Proc, req.VA, false)
	}
	if hres.LLCMiss {
		res.LLCMiss = true
		pa, lat, ok := m.delayedTranslate(req.Core, req.Proc, req.VA, false)
		if m.cfg.ParallelDelayed {
			// The walk overlapped the LLC lookup; only the excess shows.
			if llcLat := m.Hier.Config().LLC.HitLatency; lat > llcLat {
				lat -= llcLat
			} else {
				lat = 0
			}
		}
		res.Latency += lat
		if !ok {
			fl, _ := m.HandleFault(req.Proc, req.VA, req.Kind == cache.Write)
			res.Latency += fl
			res.Fault = true
			return
		}
		res.Latency += m.DRAM.Access(pa)
	}

	// Dirty virtual lines leaving the LLC need translation to reach
	// memory; this is off the critical path but consumes translation
	// energy and state.
	for _, wb := range hres.Writebacks {
		if !wb.Synonym {
			m.delayedTranslate(req.Core, m.procFor(wb.ASID, req.Proc), addr.VA(wb.Addr), true)
		}
	}
}

// stepRebuildPolicy advances the adaptive filter rebuild window for the
// process and asks the OS to reconstruct the filter when stale bits
// generate too many false positives (Section III-B).
func (m *HybridMMU) stepRebuildPolicy(proc *osmodel.Process) {
	w := m.fpWindow[proc.ASID]
	if w == nil {
		w = &fpStats{}
		m.fpWindow[proc.ASID] = w
	}
	w.accesses++
	if w.accesses < m.cfg.FPWindow {
		return
	}
	if float64(w.fps) > m.cfg.FPRebuildThreshold*float64(w.accesses) {
		m.kernel.RebuildFilter(proc)
		m.FilterRebuilds.Inc()
	}
	w.accesses, w.fps = 0, 0
}

// procFor resolves the process owning an ASID (writebacks may belong to a
// different process than the requester).
func (m *HybridMMU) procFor(asid addr.ASID, fallback *osmodel.Process) *osmodel.Process {
	if p := m.kernel.Process(asid); p != nil {
		return p
	}
	return fallback
}

// delayedTranslate resolves a non-synonym ASID+VA to a PA after an LLC
// miss, via the configured mechanism. wb marks writeback translations
// (dirty evicted lines) as opposed to demand misses.
func (m *HybridMMU) delayedTranslate(core int, proc *osmodel.Process, va addr.VA, wb bool) (addr.PA, uint64, bool) {
	switch m.cfg.Delayed {
	case DelayedSegments:
		if m.cfg.WithSegmentCache {
			m.Acc.Access(energy.SegmentCache, 1)
		}
		tres := m.translator.Translate(proc.ASID, va)
		if !tres.SCHit {
			m.Acc.Access(energy.IndexCache, uint64(tres.ICProbes))
			m.Acc.Access(energy.SegmentTable, 1)
		}
		m.Counts.Delayed(wb, tres.SCHit, tres.ICProbes, tres.Fault)
		if tres.Fault {
			return 0, tres.Latency, false
		}
		return tres.PA, tres.Latency, true
	default: // DelayedPageTLB
		m.Acc.Access(energy.DelayedTLB, 1)
		lat := m.delayedTLB.Config().Latency
		if e, ok := m.delayedTLB.Lookup(proc.ASID, va.Page()); ok {
			m.Counts.TLB(pipeline.TLBDelayed, true)
			m.Counts.Delayed(wb, false, 0, false)
			return addr.FrameToPA(e.PFN) + addr.PA(va.PageOffset()), lat, true
		}
		m.Counts.TLB(pipeline.TLBDelayed, false)
		steps := m.WalkSteps.Value()
		leaf, wlat, ok := m.TimedWalk(core, proc, va.PageAligned())
		lat += wlat
		m.Counts.Delayed(wb, false, int(m.WalkSteps.Value()-steps), !ok)
		if !ok {
			return 0, lat, false
		}
		m.delayedTLB.Insert(tlb.Entry{
			ASID: proc.ASID, VPN: va.Page(), PFN: leaf.FrameFor4K(va),
			Perm: leaf.Perm, Shared: leaf.Shared,
		})
		return leaf.PA(va), lat, true
	}
}

// --- osmodel.ShootdownSink ---

// TLBShootdown invalidates (asid, vpn) in every synonym TLB and the
// delayed translation structures.
func (m *HybridMMU) TLBShootdown(asid addr.ASID, vpn uint64) {
	for _, st := range m.synTLB {
		st.Shootdown(asid, vpn)
	}
	if m.delayedTLB != nil {
		m.delayedTLB.Shootdown(asid, vpn)
	}
	if m.translator != nil && m.translator.SC != nil {
		// Conservative: the 2 MiB granule containing the page.
		m.translator.SC.FlushAll()
	}
}

// FlushPage removes a page's lines from the hierarchy.
func (m *HybridMMU) FlushPage(page addr.Name) {
	m.Hier.FlushPage(page)
}

// SetPagePerm updates cached permission bits (r/o content sharing).
func (m *HybridMMU) SetPagePerm(page addr.Name, perm addr.Perm) {
	m.Hier.SetPagePerm(page, perm)
}

// FilterUpdate is a no-op: the filter probe reads the process's own
// filter, so no per-core copy needs reloading after the OS changes it.
func (m *HybridMMU) FilterUpdate(addr.ASID) {}

// FlushASID removes the address space from every hardware structure so
// the OS can recycle the identifier.
func (m *HybridMMU) FlushASID(asid addr.ASID) {
	m.Hier.FlushASID(asid)
	for _, st := range m.synTLB {
		st.FlushASID(asid)
	}
	if m.delayedTLB != nil {
		m.delayedTLB.FlushASID(asid)
	}
	if m.translator != nil && m.translator.SC != nil {
		m.translator.SC.FlushAll()
	}
	delete(m.fpWindow, asid)
}
