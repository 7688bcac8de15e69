// Package baseline implements the memory system organizations the paper
// compares against: the conventional physically addressed hierarchy with a
// two-level TLB (Table IV, Haswell-like), an ideal TLB (no translation
// cost), RMM-style range translation with 32 pre-L1 segments, and direct
// segments. An Enigma-style organization is available through the hybrid
// MMU's FilterBypass configuration (see internal/core).
package baseline

import (
	"fmt"

	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/energy"
	"hybridvc/internal/mem"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/pipeline"
	"hybridvc/internal/segment"
	"hybridvc/internal/stats"
	"hybridvc/internal/tlb"
)

// Config parameterizes the baseline organizations.
type Config struct {
	Hier   cache.HierarchyConfig
	DRAM   mem.DRAMConfig
	Energy energy.Model
}

// DefaultConfig returns the paper's Table IV baseline for n cores.
func DefaultConfig(n int) Config {
	return Config{
		Hier:   cache.DefaultHierarchyConfig(n),
		DRAM:   mem.DefaultDRAMConfig(),
		Energy: energy.DefaultModel(),
	}
}

// Conventional is the physically addressed baseline: a per-core two-level
// TLB in front of the L1, hardware page walks on misses. It is a pure
// FrontEnd organization: every access routes physically, with no cache
// stage override and no backend.
type Conventional struct {
	*pipeline.Engine
	tlbs []*tlb.TwoLevel
	// hugeTLBs hold 2 MiB translations (32 entries, probed in parallel
	// with the 4 KiB L1 TLB, like a real split dTLB).
	hugeTLBs []*tlb.TLB
	kernel   *osmodel.Kernel

	// TLBMissWalks counts page walks triggered by TLB misses.
	TLBMissWalks stats.Counter
	TLBShoots    stats.Counter
	// HugeTLBHits counts translations served by the 2 MiB TLB.
	HugeTLBHits stats.Counter
}

// NewConventional builds the baseline and registers as the kernel's sink.
func NewConventional(cfg Config, k *osmodel.Kernel) *Conventional {
	c := &Conventional{kernel: k}
	c.Engine = pipeline.NewEngine(core.NewBase(cfg.Hier, cfg.DRAM, cfg.Energy), c, nil, nil)
	for i := 0; i < cfg.Hier.NumCores; i++ {
		c.tlbs = append(c.tlbs, tlb.NewTwoLevel(tlb.DefaultTwoLevelConfig()))
		c.hugeTLBs = append(c.hugeTLBs, tlb.New(tlb.Config{
			Name: fmt.Sprintf("huge-tlb[%d]", i), Entries: 32, Ways: 32, Latency: 1,
		}))
	}
	k.AttachSink(c)
	return c
}

// Name implements core.MemSystem.
func (c *Conventional) Name() string { return "baseline" }

// TLB exposes core i's two-level TLB.
func (c *Conventional) TLB(core int) *tlb.TwoLevel { return c.tlbs[core] }

// translate resolves VA->PA through the TLB hierarchy, charging latency
// beyond the L1-overlapped lookup and walk costs.
func (c *Conventional) translate(req *core.Request) (addr.PA, addr.Perm, uint64, bool) {
	tl := c.tlbs[req.Core]
	c.Acc.Access(energy.L1TLB, 1)
	// The 2 MiB TLB is probed in parallel with the 4 KiB L1 TLB.
	if e, ok := c.hugeTLBs[req.Core].Lookup(req.Proc.ASID, req.VA.HugePage()); ok {
		c.HugeTLBHits.Inc()
		c.Counts.TLB(pipeline.TLBHuge, true)
		off := uint64(req.VA) & (addr.HugePageSize - 1)
		return addr.FrameToPA(e.PFN) + addr.PA(off), e.Perm, 0, true
	}
	tres := tl.Lookup(req.Proc.ASID, req.VA.Page())
	c.Counts.TLB(pipeline.TLBHuge, false)
	c.Counts.TwoLevelTLB(tres.Level)
	var lat uint64
	switch tres.Level {
	case 1:
		// L1 TLB lookup overlaps L1 cache indexing: no added latency.
	case 2:
		c.Acc.Access(energy.L2TLB, 1)
		lat = tl.L2.Config().Latency
	default:
		c.Acc.Access(energy.L2TLB, 1)
		lat = tl.L2.Config().Latency
		c.TLBMissWalks.Inc()
		leaf, wlat, ok := c.TimedWalk(req.Core, req.Proc, req.VA.PageAligned())
		lat += wlat
		if !ok {
			return 0, 0, lat, false
		}
		if leaf.Huge {
			c.hugeTLBs[req.Core].Insert(tlb.Entry{
				ASID: req.Proc.ASID, VPN: req.VA.HugePage(), PFN: leaf.Frame,
				Perm: leaf.Perm, Shared: leaf.Shared,
			})
		} else {
			tl.Insert(tlb.Entry{
				ASID: req.Proc.ASID, VPN: req.VA.Page(), PFN: leaf.Frame,
				Perm: leaf.Perm, Shared: leaf.Shared,
			})
		}
		return leaf.PA(req.VA), leaf.Perm, lat, true
	}
	return addr.FrameToPA(tres.Entry.PFN) + addr.PA(req.VA.PageOffset()),
		tres.Entry.Perm, lat, true
}

// Route implements pipeline.FrontEnd.
func (c *Conventional) Route(req *core.Request, res *core.Result) pipeline.Decision {
	pa, perm, lat, ok := c.translate(req)
	res.Latency += lat
	if !ok {
		fl, fixed := c.HandleFault(req.Proc, req.VA, req.Kind == cache.Write)
		res.Latency += fl
		res.Fault = true
		if !fixed {
			return pipeline.DoneNow()
		}
		pa, perm, lat, ok = c.translate(req)
		res.Latency += lat
		if !ok {
			return pipeline.DoneNow()
		}
	}
	if req.Kind == cache.Write && !perm.AllowsWrite() {
		fl, fixed := c.HandleFault(req.Proc, req.VA, true)
		res.Latency += fl
		res.Fault = true
		if !fixed {
			return pipeline.DoneNow()
		}
		pa, perm, _, _ = c.translate(req)
	}
	return pipeline.GoPhysical(pa, perm)
}

// --- osmodel.ShootdownSink ---

// TLBShootdown invalidates the page in every core's TLBs.
func (c *Conventional) TLBShootdown(asid addr.ASID, vpn uint64) {
	c.TLBShoots.Inc()
	for i, tl := range c.tlbs {
		tl.Shootdown(asid, vpn)
		c.hugeTLBs[i].Shootdown(asid, vpn>>(addr.HugePageBits-addr.PageBits))
	}
}

// FlushPage is a no-op for physical caches (remaps do not change the
// physical names; the OS copies or zeroes frames functionally).
func (c *Conventional) FlushPage(page addr.Name) {
	if page.Synonym {
		c.Hier.FlushPage(page)
	}
}

// SetPagePerm updates TLB permissions by shooting the entries down.
func (c *Conventional) SetPagePerm(page addr.Name, perm addr.Perm) {
	if !page.Synonym {
		c.TLBShootdown(page.ASID, page.Page())
	}
}

// FilterUpdate is a no-op: the baseline has no synonym filters.
func (c *Conventional) FilterUpdate(addr.ASID) {}

// FlushASID drops the address space's TLB entries (physical cache lines
// stay; the frames are recycled by the OS).
func (c *Conventional) FlushASID(asid addr.ASID) {
	for i, tl := range c.tlbs {
		tl.FlushASID(asid)
		c.hugeTLBs[i].FlushASID(asid)
	}
}

// Ideal models perfect translation: zero latency, zero energy — the
// paper's "ideal TLB" upper bound.
type Ideal struct {
	*pipeline.Engine
	kernel *osmodel.Kernel
}

// NewIdeal builds the ideal memory system.
func NewIdeal(cfg Config, k *osmodel.Kernel) *Ideal {
	i := &Ideal{kernel: k}
	i.Engine = pipeline.NewEngine(core.NewBase(cfg.Hier, cfg.DRAM, cfg.Energy), i, nil, nil)
	k.AttachSink(i)
	return i
}

// Name implements core.MemSystem.
func (i *Ideal) Name() string { return "ideal" }

// Route implements pipeline.FrontEnd.
func (i *Ideal) Route(req *core.Request, res *core.Result) pipeline.Decision {
	pa, ok := req.Proc.PT.Translate(req.VA)
	if !ok {
		fl, fixed := i.HandleFault(req.Proc, req.VA, req.Kind == cache.Write)
		res.Latency += fl
		res.Fault = true
		if !fixed {
			return pipeline.DoneNow()
		}
		pa, _ = req.Proc.PT.Translate(req.VA)
	}
	return pipeline.GoPhysical(pa, addr.PermRW)
}

// TLBShootdown implements osmodel.ShootdownSink.
func (i *Ideal) TLBShootdown(addr.ASID, uint64) {}

// FlushPage implements osmodel.ShootdownSink.
func (i *Ideal) FlushPage(page addr.Name) {
	if page.Synonym {
		i.Hier.FlushPage(page)
	}
}

// SetPagePerm implements osmodel.ShootdownSink.
func (i *Ideal) SetPagePerm(addr.Name, addr.Perm) {}

// FilterUpdate implements osmodel.ShootdownSink.
func (i *Ideal) FilterUpdate(addr.ASID) {}

// FlushASID implements osmodel.ShootdownSink.
func (i *Ideal) FlushASID(addr.ASID) {}

// RangeTLB is RMM's 32-entry fully associative range table, operating at
// the L2 TLB latency (7 cycles) on the critical pre-L1 path.
type RangeTLB struct {
	entries []*segment.Segment
	lru     []uint64
	tick    uint64
	cap     int
	Stats   stats.HitMiss
}

// NewRangeTLB creates a range TLB with the given capacity (RMM: 32).
func NewRangeTLB(capacity int) *RangeTLB {
	if capacity <= 0 {
		panic(fmt.Sprintf("baseline: invalid range TLB capacity %d", capacity))
	}
	return &RangeTLB{cap: capacity}
}

// Lookup finds a cached range covering (asid, va).
func (r *RangeTLB) Lookup(asid addr.ASID, va addr.VA) (*segment.Segment, bool) {
	r.tick++
	for i, s := range r.entries {
		if s.Contains(asid, va) {
			r.lru[i] = r.tick
			r.Stats.Hit()
			return s, true
		}
	}
	r.Stats.Miss()
	return nil, false
}

// Insert caches a range, evicting the LRU entry when full.
func (r *RangeTLB) Insert(s *segment.Segment) {
	r.tick++
	if len(r.entries) < r.cap {
		r.entries = append(r.entries, s)
		r.lru = append(r.lru, r.tick)
		return
	}
	victim := 0
	for i := range r.lru {
		if r.lru[i] < r.lru[victim] {
			victim = i
		}
	}
	r.entries[victim] = s
	r.lru[victim] = r.tick
}

// FlushASID drops every cached range of the address space.
func (r *RangeTLB) FlushASID(asid addr.ASID) {
	kept := r.entries[:0]
	keptLRU := r.lru[:0]
	for i, s := range r.entries {
		if s.ASID != asid {
			kept = append(kept, s)
			keptLRU = append(keptLRU, r.lru[i])
		}
	}
	r.entries = kept
	r.lru = keptLRU
}

// Misses returns the miss count (the Table III "RMM MPKI" numerator).
func (r *RangeTLB) Misses() uint64 { return r.Stats.Misses.Value() }

// RMM is the redundant-memory-mapping baseline: an L1 page TLB, a 32-entry
// range TLB at the L2 level, and redundant paging as the fallback.
type RMM struct {
	*pipeline.Engine
	kernel *osmodel.Kernel
	l1tlbs []*tlb.TLB
	ranges []*RangeTLB

	// RangeWalks counts range-table fills after range TLB misses.
	RangeWalks stats.Counter
}

// RMMRangeEntries is RMM's per-core range TLB capacity.
const RMMRangeEntries = 32

// NewRMM builds the RMM baseline.
func NewRMM(cfg Config, k *osmodel.Kernel) *RMM {
	r := &RMM{kernel: k}
	r.Engine = pipeline.NewEngine(core.NewBase(cfg.Hier, cfg.DRAM, cfg.Energy), r, nil, nil)
	for i := 0; i < cfg.Hier.NumCores; i++ {
		r.l1tlbs = append(r.l1tlbs, tlb.New(tlb.Config{
			Name: fmt.Sprintf("rmm-l1tlb[%d]", i), Entries: 64, Ways: 4, Latency: 1,
		}))
		r.ranges = append(r.ranges, NewRangeTLB(RMMRangeEntries))
	}
	k.AttachSink(r)
	return r
}

// Name implements core.MemSystem.
func (r *RMM) Name() string { return "rmm" }

// Range exposes core i's range TLB.
func (r *RMM) Range(core int) *RangeTLB { return r.ranges[core] }

// Route implements pipeline.FrontEnd.
func (r *RMM) Route(req *core.Request, res *core.Result) pipeline.Decision {
	var pa addr.PA
	var perm addr.Perm

	r.Acc.Access(energy.L1TLB, 1)
	e, ok := r.l1tlbs[req.Core].Lookup(req.Proc.ASID, req.VA.Page())
	r.Counts.TLB(pipeline.TLBL1, ok)
	if ok {
		pa = addr.FrameToPA(e.PFN) + addr.PA(req.VA.PageOffset())
		perm = e.Perm
	} else {
		// Range TLB at the L2 TLB position: 7 cycles on the critical path.
		r.Acc.Access(energy.SegmentTable, 1)
		res.Latency += 7
		seg, rok := r.ranges[req.Core].Lookup(req.Proc.ASID, req.VA)
		r.Counts.TLB(pipeline.TLBRange, rok)
		if rok {
			pa = seg.Translate(req.VA)
			perm = seg.Perm
		} else {
			// Range walk: the OS range table supplies the segment; charge
			// a page-walk-like cost through the cache hierarchy.
			r.RangeWalks.Inc()
			leaf, wlat, ok := r.TimedWalk(req.Core, req.Proc, req.VA.PageAligned())
			res.Latency += wlat
			if !ok {
				fl, fixed := r.HandleFault(req.Proc, req.VA, req.Kind == cache.Write)
				res.Latency += fl
				res.Fault = true
				if !fixed {
					return pipeline.DoneNow()
				}
				leaf, wlat, _ = r.TimedWalk(req.Core, req.Proc, req.VA.PageAligned())
				res.Latency += wlat
			}
			pa = leaf.PA(req.VA)
			perm = leaf.Perm
			if seg, ok := r.kernel.SegMgr.LookupSoft(req.Proc.ASID, req.VA); ok {
				r.ranges[req.Core].Insert(seg)
			}
		}
		r.l1tlbs[req.Core].Insert(tlb.Entry{
			ASID: req.Proc.ASID, VPN: req.VA.Page(), PFN: pa.Frame(), Perm: perm,
		})
	}

	if req.Kind == cache.Write && !perm.AllowsWrite() {
		fl, fixed := r.HandleFault(req.Proc, req.VA, true)
		res.Latency += fl
		res.Fault = true
		if !fixed {
			return pipeline.DoneNow()
		}
	}
	return pipeline.GoPhysical(pa, perm)
}

// TLBShootdown implements osmodel.ShootdownSink.
func (r *RMM) TLBShootdown(asid addr.ASID, vpn uint64) {
	for _, t := range r.l1tlbs {
		t.Shootdown(asid, vpn)
	}
}

// FlushPage implements osmodel.ShootdownSink.
func (r *RMM) FlushPage(page addr.Name) {
	if page.Synonym {
		r.Hier.FlushPage(page)
	}
}

// SetPagePerm implements osmodel.ShootdownSink.
func (r *RMM) SetPagePerm(page addr.Name, perm addr.Perm) {
	if !page.Synonym {
		r.TLBShootdown(page.ASID, page.Page())
	}
}

// FilterUpdate implements osmodel.ShootdownSink.
func (r *RMM) FilterUpdate(addr.ASID) {}

// FlushASID implements osmodel.ShootdownSink.
func (r *RMM) FlushASID(asid addr.ASID) {
	for _, t := range r.l1tlbs {
		t.FlushASID(asid)
	}
	// Range TLBs hold segment pointers; drop any for the ASID.
	for _, rt := range r.ranges {
		rt.FlushASID(asid)
	}
}

// DirectSegment gives each process one base/limit/offset register triple
// covering its largest contiguous region; addresses inside it translate
// for free, everything else takes the conventional TLB path. It runs its
// own engine (with itself as FrontEnd) over the Conventional baseline's
// substrate, falling back to the conventional Route outside the segment.
type DirectSegment struct {
	*Conventional
	*pipeline.Engine
	segs map[addr.ASID]*segment.Segment
	// memoASID/memoSeg cache the last segs lookup (hit or miss), sparing
	// the hot paths a map probe per reference; AssignSegment invalidates.
	memoASID  addr.ASID
	memoSeg   *segment.Segment
	memoValid bool

	// InSegment counts accesses translated by the direct segment.
	InSegment stats.Counter
}

// NewDirectSegment builds the direct segment baseline.
func NewDirectSegment(cfg Config, k *osmodel.Kernel) *DirectSegment {
	d := &DirectSegment{
		Conventional: NewConventional(cfg, k),
		segs:         make(map[addr.ASID]*segment.Segment),
	}
	d.Engine = pipeline.NewEngine(d.Conventional.BaseState(), d, nil, nil)
	return d
}

// Name implements core.MemSystem.
func (d *DirectSegment) Name() string { return "direct-segment" }

// AssignSegment installs the process's direct segment registers, picking
// its largest backing segment.
func (d *DirectSegment) AssignSegment(p *osmodel.Process) {
	var best *segment.Segment
	for _, s := range d.kernel.SegMgr.Segments(p.ASID) {
		if best == nil || s.Length > best.Length {
			best = s
		}
	}
	if best != nil {
		d.segs[p.ASID] = best
	}
	d.memoValid = false
}

// segFor returns the process's direct segment (nil if none), through the
// one-entry memo.
func (d *DirectSegment) segFor(asid addr.ASID) *segment.Segment {
	if d.memoValid && d.memoASID == asid {
		return d.memoSeg
	}
	s := d.segs[asid]
	d.memoASID, d.memoSeg, d.memoValid = asid, s, true
	return s
}

// Route implements pipeline.FrontEnd: inside the direct segment the
// translation is free; outside, the conventional TLB front end runs.
func (d *DirectSegment) Route(req *core.Request, res *core.Result) pipeline.Decision {
	if s := d.segFor(req.Proc.ASID); s != nil && s.Contains(req.Proc.ASID, req.VA) {
		d.InSegment.Inc()
		return pipeline.GoPhysical(s.Translate(req.VA), s.Perm)
	}
	return d.Conventional.Route(req, res)
}
