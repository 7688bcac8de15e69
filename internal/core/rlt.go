package core

import (
	"fmt"

	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/energy"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/pipeline"
	"hybridvc/internal/stats"
	"hybridvc/internal/tlb"
)

// recordPages is how many consecutive pages one reverse-lookup record
// block covers: a 64-byte line holds eight 8-byte records.
const recordPages = 8

// rltWalkLatency is the cost of rebuilding a record block from the OS
// synonym-range table when neither the record cache nor the data caches
// hold it (an OS-structure lookup off the critical L1 path).
const rltWalkLatency = 40

// RLTVC is a virtually tagged hierarchy whose synonym detection uses an
// exact reverse-lookup table instead of the hybrid design's Bloom filter:
// a per-core record cache answers "is this page a synonym?" precisely, its
// misses probe the data caches for the record block (a typed-payload line
// bitmap covering recordPages pages), and only a full miss rebuilds the
// record from the OS synonym ranges. Exactness trades the Bloom filter's
// false positives for record storage that competes with data in the LLC —
// the fig4/table2-style comparison this organization exists for. Delayed
// translation (post-LLC) reuses the embedded hybrid MMU's backend.
type RLTVC struct {
	*HybridMMU
	*pipeline.Engine
	rlt []*tlb.TLB

	// RecordFills counts record blocks installed after rebuilds. The
	// hierarchy's PayloadEvictions counts those that left the LLC.
	RecordFills stats.Counter
}

// NewRLTVC builds the organization over an inner hybrid MMU (whose Bloom
// filter goes unused on the front end, but whose virtual routing, delayed
// translation and writeback machinery are reused verbatim) and registers
// as the kernel's sink.
func NewRLTVC(cfg HybridConfig, k *osmodel.Kernel) *RLTVC {
	m := &RLTVC{HybridMMU: NewHybridMMU(cfg, k)}
	m.Engine = pipeline.NewEngine(m.HybridMMU.BaseState(), m, nil, m.HybridMMU)
	for i := 0; i < cfg.Hier.NumCores; i++ {
		m.rlt = append(m.rlt, tlb.New(tlb.Config{
			Name: fmt.Sprintf("rlt[%d]", i), Entries: 64, Ways: 4, Latency: 1,
		}))
	}
	k.AttachSink(m)
	return m
}

// Name implements MemSystem.
func (m *RLTVC) Name() string { return "rlt-vc" }

// RLT exposes core i's record cache.
func (m *RLTVC) RLT(core int) *tlb.TLB { return m.rlt[core] }

// recordGroup returns the base VPN of the record block covering vpn.
func recordGroup(vpn uint64) uint64 { return vpn &^ (recordPages - 1) }

// recordName is the cache name of the record block covering (asid, vpn).
func recordName(asid addr.ASID, vpn uint64) addr.Name {
	return addr.PayloadName(addr.PayloadSynRecord, asid, addr.PageToVA(recordGroup(vpn)))
}

// recordBitmap rebuilds a record block's payload from the authoritative OS
// synonym ranges: bit i is set when page group+i lies in a live range.
func recordBitmap(proc *osmodel.Process, group uint64) uint64 {
	var bits uint64
	for i := uint64(0); i < recordPages; i++ {
		va := addr.PageToVA(group + i)
		for _, r := range proc.SynonymRanges {
			if va >= r.Start && va < r.Start+addr.VA(r.Length) {
				bits |= 1 << i
				break
			}
		}
	}
	return bits
}

// lookupRecord classifies vpn after a record-cache miss: it probes the
// data caches for the record block and rebuilds it from the OS ranges on a
// full miss, charging the latency into res.
func (m *RLTVC) lookupRecord(req *Request, res *Result) bool {
	vpn := req.VA.Page()
	name := recordName(req.Proc.ASID, vpn)
	payload, lat, hit := m.Hier.ProbePayload(req.Core, name)
	res.Latency += lat
	m.Counts.TLB(pipeline.TLBXlatCache, hit)
	if !hit {
		m.Acc.Access(energy.SegmentTable, 1)
		res.Latency += rltWalkLatency
		payload = recordBitmap(req.Proc, recordGroup(vpn))
		m.Hier.FillPayload(req.Core, name, payload)
		m.RecordFills.Inc()
	}
	return payload>>(vpn-recordGroup(vpn))&1 != 0
}

// Route implements pipeline.FrontEnd. The record cache replaces the Bloom
// filter probe (same overlapped position, same energy component), and its
// verdict is exact: a synonym classification is always true, so the
// false-positive path never runs and Counts.FalsePositives stays zero by
// construction.
func (m *RLTVC) Route(req *Request, res *Result) pipeline.Decision {
	m.Acc.Access(energy.SynonymFilter, 1)
	rc := m.rlt[req.Core]
	vpn := req.VA.Page()
	e, hit := rc.Lookup(req.Proc.ASID, vpn)
	m.Counts.TLB(pipeline.TLBRLT, hit)
	var isSyn bool
	if hit {
		isSyn = !e.NonSynonym
	} else {
		isSyn = m.lookupRecord(req, res)
	}
	m.Counts.Filter(isSyn)
	if !isSyn {
		if !hit {
			m.insertNonSynonym(req.Core, req.Proc, vpn)
		}
		return routeVirtual(m.Engine, req, res)
	}
	m.Acc.Access(energy.SynonymTLB, 1)
	res.Latency += rc.Config().Latency
	if !hit {
		leaf, lat, ok := m.TimedWalk(req.Core, req.Proc, req.VA.PageAligned())
		res.Latency += lat
		if !ok {
			return m.Fault(req, res)
		}
		ne := tlb.Entry{
			ASID: req.Proc.ASID, VPN: vpn, PFN: leaf.FrameFor4K(req.VA),
			Perm: leaf.Perm, Shared: leaf.Shared,
		}
		rc.Insert(ne)
		e = &ne
	}
	m.TrueSynonymAccesses.Inc()
	if req.Kind == cache.Write && !e.Perm.AllowsWrite() {
		return m.Fault(req, res)
	}
	pa := addr.FrameToPA(e.PFN) + addr.PA(req.VA.PageOffset())
	return pipeline.GoPhysical(pa, e.Perm)
}

// insertNonSynonym caches a page's non-synonym classification, carrying
// the page-table frame so the entry audits cleanly against the tables.
// Unmapped pages (demand paging still pending) are not cached: the fault
// path runs first, and the reference's re-run caches the repaired page.
func (m *RLTVC) insertNonSynonym(core int, proc *osmodel.Process, vpn uint64) {
	pte, ok := proc.PT.Lookup(addr.PageToVA(vpn))
	if !ok {
		return
	}
	pfn := pte.Frame
	if pte.Huge {
		pfn |= vpn & (addr.HugePageSize/addr.PageSize - 1)
	}
	m.rlt[core].Insert(tlb.Entry{
		ASID: proc.ASID, VPN: vpn, PFN: pfn,
		Perm: pte.Perm, Shared: pte.Shared, NonSynonym: true,
	})
}

// PayloadCoherence audits one cached record block against the live OS
// synonym ranges (the fault checker's PayloadCoherence hook).
func (m *RLTVC) PayloadCoherence(n addr.Name, payload uint64) error {
	if n.Kind != addr.PayloadSynRecord {
		return fmt.Errorf("rlt-vc: unexpected payload kind in block %s", n)
	}
	proc := m.kernel.Process(n.ASID)
	if proc == nil {
		return fmt.Errorf("rlt-vc: record block %s names dead address space", n)
	}
	if want := recordBitmap(proc, addr.VA(n.Addr).Page()); payload != want {
		return fmt.Errorf("rlt-vc: record block %s bitmap %#x disagrees with synonym ranges (%#x)",
			n, payload, want)
	}
	return nil
}

// flushRecords removes every cached record block of the address space.
func (m *RLTVC) flushRecords(asid addr.ASID) {
	var doomed []addr.Name
	m.Hier.ForEachPayload(func(n addr.Name, _ uint64) {
		if n.Kind == addr.PayloadSynRecord && n.ASID == asid {
			doomed = append(doomed, n)
		}
	})
	for _, n := range doomed {
		m.Hier.FlushName(n)
	}
}

// --- osmodel.ShootdownSink (extends the inner hybrid MMU's handling) ---

// TLBShootdown additionally invalidates the page in every record cache and
// flushes its record block: the remap may change the page's synonym
// classification, so the cached record must be rebuilt.
func (m *RLTVC) TLBShootdown(asid addr.ASID, vpn uint64) {
	m.HybridMMU.TLBShootdown(asid, vpn)
	for _, rc := range m.rlt {
		rc.Shootdown(asid, vpn)
	}
	m.Hier.FlushName(recordName(asid, vpn))
}

// FilterUpdate fires when an address space's synonym ranges changed: the
// exact records are rebuilt lazily, so every cached classification of the
// space is dropped.
func (m *RLTVC) FilterUpdate(asid addr.ASID) {
	for _, rc := range m.rlt {
		rc.FlushASID(asid)
	}
	m.flushRecords(asid)
}

// FlushASID additionally drops the address space's record-cache entries
// (its record blocks go with the inner hierarchy ASID flush).
func (m *RLTVC) FlushASID(asid addr.ASID) {
	m.HybridMMU.FlushASID(asid)
	for _, rc := range m.rlt {
		rc.FlushASID(asid)
	}
}
