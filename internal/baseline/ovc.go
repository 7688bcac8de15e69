package baseline

import (
	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/energy"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/pipeline"
	"hybridvc/internal/stats"
	"hybridvc/internal/tlb"
)

// OVC models opportunistic virtual caching (the paper's closest prior
// work): only the L1 is virtually addressed, and only for non-synonym
// data; L2 and LLC remain physical, so every L1 miss still pays address
// translation. It reduces TLB *energy* (the TLB is probed only on L1
// misses and synonym accesses) but cannot reduce TLB *miss latency* the
// way full-hierarchy delayed translation does — the comparison the
// paper's Section II draws.
//
// The model is single-core: OVC's original coherence scheme (reverse
// physical tags in the L1) is represented functionally by the single-name
// discipline, not by a multi-core protocol.
//
// OVC is the one organization with a custom pipeline CacheStage: its
// hierarchy is split (virtual L1, physical L2/LLC), so neither the
// uniform virtual hierarchy walk nor the uniform physical one applies.
type OVC struct {
	*pipeline.Engine
	kernel *osmodel.Kernel
	tlb    *tlb.TwoLevel

	// L1VirtualHits counts L1 hits served without any translation.
	L1VirtualHits stats.Counter
	// L1MissTranslations counts TLB lookups caused by L1 misses.
	L1MissTranslations stats.Counter
}

// NewOVC builds the OVC baseline; the hierarchy config must be single-core.
func NewOVC(cfg Config, k *osmodel.Kernel) *OVC {
	if cfg.Hier.NumCores != 1 {
		panic("baseline: OVC model is single-core")
	}
	o := &OVC{
		kernel: k,
		tlb:    tlb.NewTwoLevel(tlb.DefaultTwoLevelConfig()),
	}
	o.Engine = pipeline.NewEngine(core.NewBase(cfg.Hier, cfg.DRAM, cfg.Energy), o, o, nil)
	k.AttachSink(o)
	return o
}

// Name implements core.MemSystem.
func (o *OVC) Name() string { return "ovc" }

// l1For returns the L1 array used by the access kind.
func (o *OVC) l1For(kind cache.AccessKind) *cache.Cache {
	if kind == cache.Fetch {
		return o.Hier.L1I(0)
	}
	return o.Hier.L1D(0)
}

// translate runs the two-level TLB + walk, charging energy and latency.
func (o *OVC) translate(req *core.Request) (addr.PA, addr.Perm, uint64, bool) {
	o.Acc.Access(energy.L1TLB, 1)
	tres := o.tlb.Lookup(req.Proc.ASID, req.VA.Page())
	o.Counts.TwoLevelTLB(tres.Level)
	var lat uint64
	if tres.Level == 0 {
		o.Acc.Access(energy.L2TLB, 1)
		lat += o.tlb.L2.Config().Latency
		leaf, wlat, ok := o.timedWalk(req.Proc, req.VA.PageAligned())
		lat += wlat
		if !ok {
			return 0, 0, lat, false
		}
		o.tlb.Insert(tlb.Entry{
			ASID: req.Proc.ASID, VPN: req.VA.Page(), PFN: leaf.Frame,
			Perm: leaf.Perm, Shared: leaf.Shared,
		})
		return leaf.PA(req.VA), leaf.Perm, lat, true
	}
	if tres.Level == 2 {
		o.Acc.Access(energy.L2TLB, 1)
		lat += o.tlb.L2.Config().Latency
	}
	return addr.FrameToPA(tres.Entry.PFN) + addr.PA(req.VA.PageOffset()),
		tres.Entry.Perm, lat, true
}

// timedWalk fetches PTEs through the physical L2/LLC path (page walkers
// bypass the L1).
func (o *OVC) timedWalk(proc *osmodel.Process, va addr.VA) (core.WalkLeaf, uint64, bool) {
	o.Acc.Access(energy.PageWalk, 1)
	path, steps, leaf, found := proc.PT.WalkPath(va)
	var lat uint64
	for _, slot := range path[:steps] {
		o.WalkSteps.Inc()
		slat, _, _ := o.physL2Access(cache.Read, slot, addr.PermRO)
		lat += slat
	}
	o.Counts.Walk(steps)
	if !found {
		return core.WalkLeaf{}, lat, false
	}
	return core.WalkLeaf{Frame: leaf.Frame, Perm: leaf.Perm, Shared: leaf.Shared}, lat, true
}

// physL2Access runs the L2 -> LLC -> DRAM physical path (no L1), filling
// on the way back and preserving inclusion manually. It reports the
// latency, the level that supplied the data on Result.HitLevel's scale
// (2 = L2, 3 = LLC, 0 = memory) and whether the LLC missed.
func (o *OVC) physL2Access(kind cache.AccessKind, pa addr.PA, perm addr.Perm) (uint64, int, bool) {
	n := addr.PhysName(pa)
	l2 := o.Hier.L2(0)
	lat := l2.Config().HitLatency
	if l := l2.Access(n); l != nil {
		if kind == cache.Write {
			l.State = cache.Modified
		}
		return lat, 2, false
	}
	llc := o.Hier.LLC()
	lat += llc.Config().HitLatency
	level, llcMiss := 3, false
	if l := llc.Access(n); l == nil {
		level, llcMiss = 0, true
		lat += o.DRAM.Access(pa)
		if v, evicted := llc.Fill(n, cache.Exclusive, perm); evicted {
			o.backInvalidate(v.Name)
		}
	}
	st := cache.Exclusive
	if kind == cache.Write {
		st = cache.Modified
	}
	if v, evicted := l2.Fill(n, st, perm); evicted && v.Dirty {
		if l := llc.Probe(v.Name); l != nil {
			l.State = cache.Modified
		}
	}
	return lat, level, llcMiss
}

// backInvalidate preserves LLC inclusion over the private levels.
func (o *OVC) backInvalidate(n addr.Name) {
	o.Hier.L1D(0).Invalidate(n)
	o.Hier.L1I(0).Invalidate(n)
	o.Hier.L2(0).Invalidate(n)
	// Virtual L1 lines whose physical home left the LLC are tracked via
	// the name they were filled under; OVC keeps a reverse physical tag
	// for this. We model it by flushing matching virtual lines lazily on
	// miss (functional effect: none, since data contents are not modeled
	// and translations stay valid).
}

// Route implements pipeline.FrontEnd: non-synonym accesses go to the
// virtual L1 with no up-front translation at all; synonym candidates
// translate first and run the physical L1.
func (o *OVC) Route(req *core.Request, res *core.Result) pipeline.Decision {
	candidate := req.Proc.Filter.IsCandidate(req.VA)
	o.Counts.Filter(candidate)
	if !candidate {
		return pipeline.GoVirtual(0)
	}
	// Synonym candidate: conventional path, physical L1.
	pa, perm, lat, ok := o.translate(req)
	res.Latency += lat
	if !ok || req.Kind == cache.Write && !perm.AllowsWrite() {
		return o.Fault(req, res)
	}
	return pipeline.GoPhysical(pa, perm)
}

// Physical implements pipeline.CacheStage: physical L1, then the outer
// physical path.
func (o *OVC) Physical(req *core.Request, pa addr.PA, perm addr.Perm, res *core.Result) {
	l1 := o.l1For(req.Kind)
	pname := addr.PhysName(pa)
	res.Latency += l1.Config().HitLatency
	if l := l1.Access(pname); l != nil {
		if req.Kind == cache.Write {
			l.State = cache.Modified
		}
		res.HitLevel = 1
		return
	}
	lat, level, llcMiss := o.physL2Access(req.Kind, pa, perm)
	res.Latency += lat
	res.HitLevel = level
	res.LLCMiss = llcMiss
	st := cache.Exclusive
	if req.Kind == cache.Write {
		st = cache.Modified
	}
	l1.Fill(pname, st, perm)
}

// Virtual implements pipeline.CacheStage: the virtual L1 path, where a
// hit needs no translation at all and a miss translates before the
// physical outer hierarchy.
func (o *OVC) Virtual(req *core.Request, _ addr.Perm, res *core.Result) cache.AccessResult {
	l1 := o.l1For(req.Kind)
	vname := addr.VirtName(req.Proc.ASID, req.VA)
	res.Latency += l1.Config().HitLatency
	if l := l1.Access(vname); l != nil {
		if req.Kind == cache.Write {
			if !l.Perm.AllowsWrite() {
				o.Fault(req, res)
				return cache.AccessResult{}
			}
			l.State = cache.Modified
		}
		o.L1VirtualHits.Inc()
		res.HitLevel = 1
		return cache.AccessResult{}
	}
	// L1 miss: translate, then the physical outer hierarchy.
	o.L1MissTranslations.Inc()
	pa, perm, lat, ok := o.translate(req)
	res.Latency += lat
	if !ok || req.Kind == cache.Write && !perm.AllowsWrite() {
		o.Fault(req, res)
		return cache.AccessResult{}
	}
	alat, level, llcMiss := o.physL2Access(req.Kind, pa, perm)
	res.Latency += alat
	res.HitLevel = level
	res.LLCMiss = llcMiss
	st := cache.Exclusive
	if req.Kind == cache.Write {
		st = cache.Modified
	}
	if v, evicted := l1.Fill(vname, st, perm); evicted && v.Dirty && !v.Name.Synonym {
		// A dirty virtual victim needs translation to write back.
		o.Acc.Access(energy.L1TLB, 1)
	}
	return cache.AccessResult{}
}

// --- osmodel.ShootdownSink ---

// TLBShootdown implements the sink.
func (o *OVC) TLBShootdown(asid addr.ASID, vpn uint64) {
	o.tlb.Shootdown(asid, vpn)
}

// FlushPage implements the sink; virtual L1 lines of the page flush too.
func (o *OVC) FlushPage(page addr.Name) {
	o.Hier.L1D(0).FlushPage(page)
	o.Hier.L1I(0).FlushPage(page)
	if page.Synonym {
		o.Hier.L2(0).FlushPage(page)
		o.Hier.LLC().FlushPage(page)
	}
}

// SetPagePerm implements the sink.
func (o *OVC) SetPagePerm(page addr.Name, perm addr.Perm) {
	o.Hier.L1D(0).SetPagePerm(page, perm)
	if !page.Synonym {
		o.TLBShootdown(page.ASID, page.Page())
	}
}

// FilterUpdate implements the sink.
func (o *OVC) FilterUpdate(addr.ASID) {}

// FlushASID implements the sink: virtual L1 lines and TLB entries of the
// address space are removed.
func (o *OVC) FlushASID(asid addr.ASID) {
	o.tlb.FlushASID(asid)
	match := func(n addr.Name) bool { return !n.Synonym && n.ASID == asid }
	o.Hier.L1D(0).FlushMatching(match)
	o.Hier.L1I(0).FlushMatching(match)
}
