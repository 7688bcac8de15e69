package baseline

import (
	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/energy"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/pipeline"
	"hybridvc/internal/tlb"
	"hybridvc/internal/virt"
)

// Virt2D is the virtualized baseline: physically (machine) addressed
// caches, a per-core two-level TLB caching direct gVA->MA translations,
// and a hardware two-dimensional page walker with a nested TLB — the
// "state-of-the-art translation cache for two-dimensional address
// translation" the paper compares against. Every TLB miss pays up to 24
// memory accesses through the cache hierarchy before the L1 access can
// proceed.
type Virt2D struct {
	*pipeline.Engine
	vm      *virt.VM
	walkers map[uint32]*virt.Walker2D
	tlbs    []*tlb.TwoLevel
}

// NewVirt2D builds the virtualized baseline over vm; AddVM consolidates
// further virtual machines.
func NewVirt2D(cfg Config, vm *virt.VM) *Virt2D {
	v := &Virt2D{
		vm:      vm,
		walkers: make(map[uint32]*virt.Walker2D),
	}
	v.Engine = pipeline.NewEngine(core.NewBase(cfg.Hier, cfg.DRAM, cfg.Energy), v, nil, nil)
	for i := 0; i < cfg.Hier.NumCores; i++ {
		v.tlbs = append(v.tlbs, tlb.NewTwoLevel(tlb.DefaultTwoLevelConfig()))
	}
	v.AddVM(vm)
	return v
}

// AddVM consolidates another VM onto this processor.
func (v *Virt2D) AddVM(vm *virt.VM) {
	v.walkers[vm.VMID] = virt.NewWalker2D(vm, true)
	vm.Kernel.AttachSink(v)
}

// Name implements core.MemSystem.
func (v *Virt2D) Name() string { return "virt-2d-baseline" }

// timed2DWalk issues a nested walk, charging its reads through the caches.
func (v *Virt2D) timed2DWalk(coreID int, proc *osmodel.Process, gva addr.VA) (virt.Walk2DResult, uint64) {
	v.Acc.Access(energy.PageWalk, 1)
	res := v.walkers[proc.ASID.VMID()].Walk(proc, gva)
	v.Acc.Access(energy.NestedTLB, uint64(res.NestedTLBHits))
	var lat uint64
	for _, ma := range res.Path {
		l, _ := v.PhysAccess(coreID, cache.Read, ma, addr.PermRO)
		lat += l
	}
	v.Counts.Walk(len(res.Path))
	return res, lat
}

// Route implements pipeline.FrontEnd.
func (v *Virt2D) Route(req *core.Request, res *core.Result) pipeline.Decision {
	tl := v.tlbs[req.Core]
	v.Acc.Access(energy.L1TLB, 1)
	tres := tl.Lookup(req.Proc.ASID, req.VA.Page())
	v.Counts.TwoLevelTLB(tres.Level)
	var ma addr.PA
	var perm addr.Perm
	switch tres.Level {
	case 1:
		ma = addr.FrameToPA(tres.Entry.PFN) + addr.PA(req.VA.PageOffset())
		perm = tres.Entry.Perm
	case 2:
		v.Acc.Access(energy.L2TLB, 1)
		res.Latency += tl.L2.Config().Latency
		ma = addr.FrameToPA(tres.Entry.PFN) + addr.PA(req.VA.PageOffset())
		perm = tres.Entry.Perm
	default:
		v.Acc.Access(energy.L2TLB, 1)
		res.Latency += tl.L2.Config().Latency
		wres, wlat := v.timed2DWalk(req.Core, req.Proc, req.VA.PageAligned())
		res.Latency += wlat
		if !wres.OK {
			return v.Fault(req, res)
		}
		perm = wres.GuestPTE.Perm
		tl.Insert(tlb.Entry{
			ASID: req.Proc.ASID, VPN: req.VA.Page(), PFN: wres.MA.Frame(),
			Perm: perm, Shared: wres.GuestPTE.Shared || wres.HostShared,
		})
		ma = wres.MA.PageAligned() + addr.PA(req.VA.PageOffset())
	}

	if req.Kind == cache.Write && !perm.AllowsWrite() {
		return v.Fault(req, res)
	}
	return pipeline.GoPhysical(ma, perm)
}

// --- osmodel.ShootdownSink ---

// TLBShootdown implements the sink.
func (v *Virt2D) TLBShootdown(asid addr.ASID, vpn uint64) {
	for _, tl := range v.tlbs {
		tl.Shootdown(asid, vpn)
	}
}

// FlushPage implements the sink.
func (v *Virt2D) FlushPage(page addr.Name) {
	if page.Synonym {
		v.Hier.FlushPage(page)
	}
}

// SetPagePerm implements the sink.
func (v *Virt2D) SetPagePerm(page addr.Name, perm addr.Perm) {
	if !page.Synonym {
		v.TLBShootdown(page.ASID, page.Page())
	}
}

// FilterUpdate implements the sink.
func (v *Virt2D) FilterUpdate(addr.ASID) {}

// FlushASID implements the sink.
func (v *Virt2D) FlushASID(asid addr.ASID) {
	for _, tl := range v.tlbs {
		tl.FlushASID(asid)
	}
}
