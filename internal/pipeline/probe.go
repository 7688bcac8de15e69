package pipeline

import (
	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
)

// Probe receives typed events from the access pipeline as each reference
// flows through the stages. It is the observability seam of the simulator:
// with no probe attached (the default) every emission site is a single
// nil-check and the batched hot path stays allocation-free; with a probe
// attached, events are delivered synchronously, in program order, from the
// simulation goroutine.
//
// Event structs are passed by value and must not be retained across calls
// in a way that assumes later mutation — they are plain data snapshots.
// Probes must not mutate simulator state; emission sites sit directly next
// to the statistics counters they mirror, so a probe's event counts
// reconcile exactly with the end-of-run stats (see the cross-organization
// consistency test in probe_test.go at the repository root).
//
// Implementations that only care about a few event kinds should embed
// NopProbe and override the methods they need.
type Probe interface {
	// Route fires once per reference entering the pipeline (including
	// fault-retry re-executions), after the front end decided how the
	// cache stage runs.
	Route(RouteEvent)
	// Filter fires once per synonym-filter probe with the verdict.
	Filter(FilterEvent)
	// FalsePositive fires when the synonym TLB corrects a filter
	// candidate to a non-synonym (the access proceeds virtually).
	FalsePositive(FalsePositiveEvent)
	// TLB fires once per TLB-structure lookup, any level.
	TLB(TLBEvent)
	// Cache fires once per reference that reached the cache stage
	// (Physical or Virtual verdicts), after the access completed.
	Cache(CacheEvent)
	// Walk fires once per timed page walk (native 1D or nested 2D).
	Walk(WalkEvent)
	// Delayed fires once per delayed translation (post-LLC segment or
	// delayed-TLB translation, demand or writeback).
	Delayed(DelayedEvent)
	// Fault fires once per OS fault-handler invocation.
	Fault(FaultEvent)
	// Retry fires when a faulted reference is re-executed through the
	// pipeline after the OS repaired the mapping.
	Retry(RetryEvent)
}

// RouteEvent reports a front-end routing decision.
type RouteEvent struct {
	Core    int
	Kind    cache.AccessKind
	VA      addr.VA
	Verdict Verdict
}

// FilterEvent reports one synonym-filter probe.
type FilterEvent struct {
	Core int
	// Candidate is the filter's verdict: the address may be a synonym.
	Candidate bool
}

// FalsePositiveEvent reports a filter candidate the synonym TLB revealed
// to be a non-synonym.
type FalsePositiveEvent struct {
	Core int
	VA   addr.VA
}

// TLBLevel identifies which TLB structure a TLBEvent describes.
type TLBLevel uint8

// The TLB structures across all organizations.
const (
	TLBSynonym   TLBLevel = iota // per-core synonym TLB (hybrid designs)
	TLBL1                        // first-level conventional TLB
	TLBL2                        // second-level conventional TLB
	TLBHuge                      // 2 MiB split TLB (conventional baseline)
	TLBDelayed                   // post-LLC delayed TLB
	TLBRange                     // RMM range TLB
	TLBXlatCache                 // cached metadata block probe in L2/LLC (victima, rlt-vc)
	TLBRLT                       // per-core reverse-lookup record cache (rlt-vc)
	NumTLBLevels
)

var tlbLevelNames = [NumTLBLevels]string{
	"syn-tlb", "l1-tlb", "l2-tlb", "huge-tlb", "delayed-tlb", "range-tlb",
	"xlat-cache", "rlt",
}

func (l TLBLevel) String() string {
	if l >= NumTLBLevels {
		return "tlb(?)"
	}
	return tlbLevelNames[l]
}

// TLBEvent reports one TLB lookup.
type TLBEvent struct {
	Core  int
	Level TLBLevel
	Hit   bool
}

// CacheEvent reports the hierarchy outcome of one reference.
type CacheEvent struct {
	Core int
	Kind cache.AccessKind
	// Virtual reports ASID+VA addressing (false: physical).
	Virtual bool
	// HitLevel is the level that supplied the data on the unified scale
	// (1 L1, 2 private, 3 LLC, 0 memory).
	HitLevel int
	LLCMiss  bool
}

// WalkEvent reports one timed page walk.
type WalkEvent struct {
	Core int
	// Steps is the number of PTE (or nested-walk) fetches issued.
	Steps int
	// OK reports that the walk found a leaf.
	OK bool
}

// DelayedEvent reports one delayed translation after the LLC.
type DelayedEvent struct {
	Core int
	// Writeback marks translations performed for dirty evicted lines
	// rather than demand misses.
	Writeback bool
	// SCHit reports the segment-cache fast path (segment designs only).
	SCHit bool
	// Depth is the walk depth behind the fast path: index-tree nodes
	// visited for many-segment translation, page-walk steps for the
	// delayed TLB fill, 0 on an SC or delayed-TLB hit.
	Depth int
	// Fault reports that no translation covered the address.
	Fault bool
}

// FaultEvent reports one OS fault-handler invocation.
type FaultEvent struct {
	Write bool
	// Fixed reports that the handler repaired the mapping (the access
	// will be retried or resumed).
	Fixed bool
}

// RetryEvent reports a post-fault re-execution of a reference.
type RetryEvent struct {
	Core int
	Kind cache.AccessKind
	VA   addr.VA
}

// NopProbe implements Probe with empty methods; embed it to implement
// only the events a probe cares about.
type NopProbe struct{}

// Route implements Probe.
func (NopProbe) Route(RouteEvent) {}

// Filter implements Probe.
func (NopProbe) Filter(FilterEvent) {}

// FalsePositive implements Probe.
func (NopProbe) FalsePositive(FalsePositiveEvent) {}

// TLB implements Probe.
func (NopProbe) TLB(TLBEvent) {}

// Cache implements Probe.
func (NopProbe) Cache(CacheEvent) {}

// Walk implements Probe.
func (NopProbe) Walk(WalkEvent) {}

// Delayed implements Probe.
func (NopProbe) Delayed(DelayedEvent) {}

// Fault implements Probe.
func (NopProbe) Fault(FaultEvent) {}

// Retry implements Probe.
func (NopProbe) Retry(RetryEvent) {}

// CountingProbe tallies every event kind without retaining event data.
// All methods are allocation-free, so it can ride the batched hot path;
// the cross-organization consistency test uses it to prove probes and
// statistics counters never drift.
type CountingProbe struct {
	// Routes counts references by front-end verdict (indexed by Verdict).
	Routes [3]uint64
	// RouteTotal counts every reference entering the pipeline.
	RouteTotal uint64

	FilterProbes     uint64
	FilterCandidates uint64
	FalsePositives   uint64

	// TLBLookups and TLBHits are indexed by TLBLevel.
	TLBLookups [NumTLBLevels]uint64
	TLBHits    [NumTLBLevels]uint64

	CacheAccesses uint64
	// CacheHitLevel counts outcomes by HitLevel (0 = memory).
	CacheHitLevel [4]uint64
	LLCMisses     uint64

	Walks     uint64
	WalkSteps uint64

	DelayedDemand     uint64
	DelayedWritebacks uint64
	DelayedSCHits     uint64
	DelayedFaults     uint64

	Faults      uint64
	FaultsFixed uint64
	Retries     uint64
}

// Route implements Probe.
func (c *CountingProbe) Route(ev RouteEvent) {
	c.RouteTotal++
	c.Routes[ev.Verdict]++
}

// Filter implements Probe.
func (c *CountingProbe) Filter(ev FilterEvent) {
	c.FilterProbes++
	if ev.Candidate {
		c.FilterCandidates++
	}
}

// FalsePositive implements Probe.
func (c *CountingProbe) FalsePositive(FalsePositiveEvent) { c.FalsePositives++ }

// TLB implements Probe.
func (c *CountingProbe) TLB(ev TLBEvent) {
	c.TLBLookups[ev.Level]++
	if ev.Hit {
		c.TLBHits[ev.Level]++
	}
}

// Cache implements Probe.
func (c *CountingProbe) Cache(ev CacheEvent) {
	c.CacheAccesses++
	if ev.HitLevel >= 0 && ev.HitLevel < len(c.CacheHitLevel) {
		c.CacheHitLevel[ev.HitLevel]++
	}
	if ev.LLCMiss {
		c.LLCMisses++
	}
}

// Walk implements Probe.
func (c *CountingProbe) Walk(ev WalkEvent) {
	c.Walks++
	c.WalkSteps += uint64(ev.Steps)
}

// Delayed implements Probe.
func (c *CountingProbe) Delayed(ev DelayedEvent) {
	if ev.Writeback {
		c.DelayedWritebacks++
	} else {
		c.DelayedDemand++
	}
	if ev.SCHit {
		c.DelayedSCHits++
	}
	if ev.Fault {
		c.DelayedFaults++
	}
}

// Fault implements Probe.
func (c *CountingProbe) Fault(ev FaultEvent) {
	c.Faults++
	if ev.Fixed {
		c.FaultsFixed++
	}
}

// Retry implements Probe.
func (c *CountingProbe) Retry(RetryEvent) { c.Retries++ }

// multiProbe fans every event out to a fixed probe list in order.
type multiProbe []Probe

// Tee composes probes: every event is delivered to each non-nil probe in
// argument order. It returns nil when no probes remain (so the result can
// be installed directly with SetProbe), and the sole probe when only one
// remains (no fan-out cost).
func Tee(probes ...Probe) Probe {
	var ps multiProbe
	for _, p := range probes {
		if p != nil {
			ps = append(ps, p)
		}
	}
	switch len(ps) {
	case 0:
		return nil
	case 1:
		return ps[0]
	}
	return ps
}

// Route implements Probe.
func (m multiProbe) Route(ev RouteEvent) {
	for _, p := range m {
		p.Route(ev)
	}
}

// Filter implements Probe.
func (m multiProbe) Filter(ev FilterEvent) {
	for _, p := range m {
		p.Filter(ev)
	}
}

// FalsePositive implements Probe.
func (m multiProbe) FalsePositive(ev FalsePositiveEvent) {
	for _, p := range m {
		p.FalsePositive(ev)
	}
}

// TLB implements Probe.
func (m multiProbe) TLB(ev TLBEvent) {
	for _, p := range m {
		p.TLB(ev)
	}
}

// Cache implements Probe.
func (m multiProbe) Cache(ev CacheEvent) {
	for _, p := range m {
		p.Cache(ev)
	}
}

// Walk implements Probe.
func (m multiProbe) Walk(ev WalkEvent) {
	for _, p := range m {
		p.Walk(ev)
	}
}

// Delayed implements Probe.
func (m multiProbe) Delayed(ev DelayedEvent) {
	for _, p := range m {
		p.Delayed(ev)
	}
}

// Fault implements Probe.
func (m multiProbe) Fault(ev FaultEvent) {
	for _, p := range m {
		p.Fault(ev)
	}
}

// Retry implements Probe.
func (m multiProbe) Retry(ev RetryEvent) {
	for _, p := range m {
		p.Retry(ev)
	}
}
