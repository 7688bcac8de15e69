package baseline

import (
	"fmt"

	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/energy"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/pipeline"
	"hybridvc/internal/stats"
	"hybridvc/internal/tlb"
)

// Victima is a translation-architecture comparison point that backs the
// conventional two-level TLB with the data cache hierarchy itself: when
// both TLB levels miss, the L2 and LLC are probed for a cached translation
// block (a typed-payload line carrying the PTE) before the page walker
// runs, and every completed walk installs its leaf as such a block. The
// cache thereby acts as a massive third-level TLB whose capacity is stolen
// from data on demand — the Victima idea — while data accesses themselves
// stay physically addressed, exactly like the baseline.
type Victima struct {
	*pipeline.Engine
	tlbs   []*tlb.TwoLevel
	kernel *osmodel.Kernel

	// TLBMissWalks counts page walks (both TLB levels and the cached
	// translation block missed).
	TLBMissWalks stats.Counter
	// CachedXlatHits counts translations served by a cached translation
	// block instead of a walk.
	CachedXlatHits stats.Counter
	// XlatFills counts translation blocks installed after walks.
	XlatFills stats.Counter
	// XlatEvictions counts translation blocks pushed out of the LLC by
	// data (or flushed by shootdowns) — the capacity-competition metric.
	XlatEvictions stats.Counter
	TLBShoots     stats.Counter
}

// NewVictima builds the organization and registers as the kernel's sink
// and as the hierarchy's payload-eviction listener.
func NewVictima(cfg Config, k *osmodel.Kernel) *Victima {
	v := &Victima{kernel: k}
	v.Engine = pipeline.NewEngine(core.NewBase(cfg.Hier, cfg.DRAM, cfg.Energy), v, nil, nil)
	for i := 0; i < cfg.Hier.NumCores; i++ {
		v.tlbs = append(v.tlbs, tlb.NewTwoLevel(tlb.DefaultTwoLevelConfig()))
	}
	v.Hier.SetPayloadListener(v)
	k.AttachSink(v)
	return v
}

// Name implements core.MemSystem.
func (v *Victima) Name() string { return "victima" }

// TLB exposes core i's two-level TLB.
func (v *Victima) TLB(core int) *tlb.TwoLevel { return v.tlbs[core] }

// packXlat encodes a translation entry into a payload word: the 4 KiB
// frame in the low 32 bits (PABits-PageBits = 28 used), the permission at
// bit 32, the shared flag at bit 34.
func packXlat(e tlb.Entry) uint64 {
	p := e.PFN | uint64(e.Perm)<<32
	if e.Shared {
		p |= 1 << 34
	}
	return p
}

// unpackXlat decodes a payload word back into a TLB entry for (asid, vpn).
func unpackXlat(asid addr.ASID, vpn, payload uint64) tlb.Entry {
	return tlb.Entry{
		ASID: asid, VPN: vpn, PFN: payload & (1<<32 - 1),
		Perm: addr.Perm(payload >> 32 & 3), Shared: payload>>34&1 != 0,
	}
}

// xlatName is the cache name of the translation block covering (asid, vpn).
func xlatName(asid addr.ASID, vpn uint64) addr.Name {
	return addr.PayloadName(addr.PayloadTranslation, asid, addr.PageToVA(vpn))
}

// translate resolves VA->PA through the TLBs, then the cached translation
// blocks, then the page walker.
func (v *Victima) translate(req *core.Request) (addr.PA, addr.Perm, uint64, bool) {
	tl := v.tlbs[req.Core]
	vpn := req.VA.Page()
	v.Acc.Access(energy.L1TLB, 1)
	tres := tl.Lookup(req.Proc.ASID, vpn)
	v.Counts.TwoLevelTLB(tres.Level)
	var lat uint64
	switch tres.Level {
	case 1:
		// L1 TLB lookup overlaps L1 cache indexing: no added latency.
	case 2:
		v.Acc.Access(energy.L2TLB, 1)
		lat = tl.L2.Config().Latency
	default:
		v.Acc.Access(energy.L2TLB, 1)
		lat = tl.L2.Config().Latency
		// Both TLB levels missed: probe the data caches for the translation
		// block before falling back to the walker.
		name := xlatName(req.Proc.ASID, vpn)
		payload, plat, hit := v.Hier.ProbePayload(req.Core, name)
		lat += plat
		v.Counts.TLB(pipeline.TLBXlatCache, hit)
		if hit {
			v.CachedXlatHits.Inc()
			e := unpackXlat(req.Proc.ASID, vpn, payload)
			tl.Insert(e)
			return addr.FrameToPA(e.PFN) + addr.PA(req.VA.PageOffset()), e.Perm, lat, true
		}
		v.TLBMissWalks.Inc()
		leaf, wlat, ok := v.TimedWalk(req.Core, req.Proc, req.VA.PageAligned())
		lat += wlat
		if !ok {
			return 0, 0, lat, false
		}
		e := tlb.Entry{
			ASID: req.Proc.ASID, VPN: vpn, PFN: leaf.FrameFor4K(req.VA),
			Perm: leaf.Perm, Shared: leaf.Shared,
		}
		v.Hier.FillPayload(req.Core, name, packXlat(e))
		v.XlatFills.Inc()
		tl.Insert(e)
		return leaf.PA(req.VA), leaf.Perm, lat, true
	}
	return addr.FrameToPA(tres.Entry.PFN) + addr.PA(req.VA.PageOffset()),
		tres.Entry.Perm, lat, true
}

// Route implements pipeline.FrontEnd.
func (v *Victima) Route(req *core.Request, res *core.Result) pipeline.Decision {
	pa, perm, lat, ok := v.translate(req)
	res.Latency += lat
	if !ok {
		fl, fixed := v.HandleFault(req.Proc, req.VA, req.Kind == cache.Write)
		res.Latency += fl
		res.Fault = true
		if !fixed {
			return pipeline.DoneNow()
		}
		pa, perm, lat, ok = v.translate(req)
		res.Latency += lat
		if !ok {
			return pipeline.DoneNow()
		}
	}
	if req.Kind == cache.Write && !perm.AllowsWrite() {
		fl, fixed := v.HandleFault(req.Proc, req.VA, true)
		res.Latency += fl
		res.Fault = true
		if !fixed {
			return pipeline.DoneNow()
		}
		pa, perm, _, _ = v.translate(req)
	}
	return pipeline.GoPhysical(pa, perm)
}

// PayloadEvicted implements cache.PayloadListener: a translation block
// left the LLC (data pushed it out, or a flush below removed it).
func (v *Victima) PayloadEvicted(addr.Name, uint64) { v.XlatEvictions.Inc() }

// PayloadCoherence audits one cached translation block against the
// authoritative page tables (the fault checker's PayloadCoherence hook).
func (v *Victima) PayloadCoherence(n addr.Name, payload uint64) error {
	if n.Kind != addr.PayloadTranslation {
		return fmt.Errorf("victima: unexpected payload kind in block %s", n)
	}
	proc := v.kernel.Process(n.ASID)
	if proc == nil {
		return fmt.Errorf("victima: translation block %s names dead address space", n)
	}
	va := addr.VA(n.Addr)
	pte, ok := proc.PT.Lookup(va)
	if !ok {
		return fmt.Errorf("victima: stale translation block %s: page not mapped", n)
	}
	want := pte.Frame
	if pte.Huge {
		want |= va.Page() & (addr.HugePageSize/addr.PageSize - 1)
	}
	e := unpackXlat(n.ASID, va.Page(), payload)
	if e.PFN != want {
		return fmt.Errorf("victima: translation block %s maps frame %#x, page table says %#x",
			n, e.PFN, want)
	}
	if e.Perm != pte.Perm || e.Shared != pte.Shared {
		return fmt.Errorf("victima: translation block %s perm/shared (%v,%v) disagree with page table (%v,%v)",
			n, e.Perm, e.Shared, pte.Perm, pte.Shared)
	}
	return nil
}

// --- osmodel.ShootdownSink ---

// TLBShootdown invalidates the page in every core's TLBs and flushes its
// cached translation block, keeping the cached copy coherent with the page
// table exactly like a TLB entry.
func (v *Victima) TLBShootdown(asid addr.ASID, vpn uint64) {
	v.TLBShoots.Inc()
	for _, tl := range v.tlbs {
		tl.Shootdown(asid, vpn)
	}
	v.Hier.FlushName(xlatName(asid, vpn))
}

// FlushPage is a no-op for the physically named data lines (remaps do not
// change physical names; the OS copies or zeroes frames functionally).
func (v *Victima) FlushPage(page addr.Name) {
	if page.Synonym {
		v.Hier.FlushPage(page)
	}
}

// SetPagePerm updates TLB and cached-translation permissions by shooting
// the entries down.
func (v *Victima) SetPagePerm(page addr.Name, perm addr.Perm) {
	if !page.Synonym {
		v.TLBShootdown(page.ASID, page.Page())
	}
}

// FilterUpdate is a no-op: no synonym filters here.
func (v *Victima) FilterUpdate(addr.ASID) {}

// FlushASID drops the address space's TLB entries and cached translation
// blocks (physical data lines stay; the frames are recycled by the OS).
func (v *Victima) FlushASID(asid addr.ASID) {
	for _, tl := range v.tlbs {
		tl.FlushASID(asid)
	}
	// The only virtually named lines this organization caches are its
	// translation blocks, so the hierarchy ASID flush removes exactly those.
	v.Hier.FlushASID(asid)
}

var _ cache.PayloadListener = (*Victima)(nil)
