// Package pipeline decomposes a memory system organization into three
// composable translation stages executed by one shared access engine:
//
//   - a FrontEnd that routes each reference before the L1 (a synonym
//     filter with its synonym TLB, a conventional TLB, range/direct
//     segments, ...), deciding whether the cache hierarchy is accessed
//     physically or virtually (or not at all, when Engine.Fault handled
//     an OS fault);
//   - a cache stage — by default the full coherent hierarchy, replaceable
//     for designs like OVC whose L1 alone is virtual; and
//   - an optional Backend that finishes the access after the hierarchy
//     (post-LLC delayed translation, writeback translation).
//
// The paper's organizations are all compositions of these stages; each one
// supplies its Route/Finish hooks and inherits the shared fault, energy
// and statistics plumbing from the Engine. Every reference takes one entry
// path, Route -> cache stage -> Finish, in two forms: Access runs it for
// one reference, and AccessBatch runs it for each element of a
// caller-provided slice without allocating.
package pipeline

import (
	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/energy"
	"hybridvc/internal/mem"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/stats"
)

// Request is one memory reference presented to a memory system.
type Request struct {
	// Core is the issuing core index.
	Core int
	// Kind is Read, Write, or Fetch.
	Kind cache.AccessKind
	// VA is the (guest) virtual address.
	VA addr.VA
	// Proc is the issuing process.
	Proc *osmodel.Process
}

// Result reports the outcome of a reference.
type Result struct {
	// Latency is the end-to-end memory access latency in cycles.
	Latency uint64
	// LLCMiss reports that the data came from DRAM.
	LLCMiss bool
	// HitLevel is the cache level that supplied the data, on the same
	// scale in every organization: 1 = L1, 2 = the private level behind
	// the L1 (L2, or OVC's physical L2 path), 3 = the shared LLC, and
	// 0 = memory. Accesses that never reach the hierarchy (unrecoverable
	// fault dead-ends) also report 0.
	HitLevel int
	// Fault reports that the OS had to intervene (demand paging, CoW).
	Fault bool
}

// FaultLatency is the cycles charged for an OS fault handler invocation
// (demand paging, CoW break, cold segment fill).
const FaultLatency = 3000

// MaxWalkRetries bounds how many times a timed page walk is re-issued
// after a transient (injected) walk failure before the walk gives up and
// reports the in-memory page-table state as-is.
const MaxWalkRetries = 3

// WalkRetryLatency is the cycles charged per transient walk retry: the
// walker detects the bad fetch (parity/poison) and re-issues the walk.
const WalkRetryLatency = 50

// Faulter perturbs a running system between accesses. The fault injector
// implements it; with none installed the engine and the walk path pay
// only a nil-check.
type Faulter interface {
	// Routed is called once per reference entering the pipeline, fault
	// re-runs included, after the front end decided and Counts counted
	// the route, and before the cache stage runs: the hierarchy is never
	// mid-update there.
	Routed()
	// FailWalk reports whether the next walk issued by core should fail
	// transiently (a soft error on a PTE fetch). It is consulted once per
	// walk attempt, so a walk that retries asks again for each re-issue.
	FailWalk(core int) bool
}

// Base bundles the pieces every memory system shares and the physical
// access path they all use.
type Base struct {
	Hier *cache.Hierarchy
	DRAM *mem.DRAM
	Acc  *energy.Accumulator

	// Faults counts OS interventions.
	Faults stats.Counter
	// WalkSteps counts PTE fetches issued by timed page walks.
	WalkSteps stats.Counter

	// Counts tallies every stage's events. It is shared by every engine
	// running over this substrate: organizations composing several
	// engines on one Base (direct segments, rlt-vc) keep one count.
	Counts Counts

	// faulter perturbs the run (nil, the default, leaves it alone).
	faulter Faulter
	// WalkRetries counts transient walk failures that were retried.
	WalkRetries stats.Counter
}

// NewBase builds the shared substrate.
func NewBase(hcfg cache.HierarchyConfig, dcfg mem.DRAMConfig, model energy.Model) *Base {
	return &Base{
		Hier:   cache.NewHierarchy(hcfg),
		DRAM:   mem.NewDRAM(dcfg),
		Acc:    energy.NewAccumulator(model),
		Counts: Counts{WalkDepth: stats.NewHistogram(1, 2, 3, 4, 6, 8, 12, 16, 24, 32)},
	}
}

// BaseState returns the shared substrate itself. Organizations embed
// *Base (through the Engine), so the promoted method implements
// core.MemSystem's BaseState for every organization: the simulator, the
// fault checker and the parity experiment reach the shared counters and
// Counts without a per-organization type switch.
func (b *Base) BaseState() *Base { return b }

// SetFaulter attaches (or, with nil, detaches) a fault source. The engine
// calls its Routed hook in every organization; organizations whose walks
// run through Base.TimedWalk also see its walk failures, while designs
// with private walkers (OVC, virtualized 2D walks) never consult
// FailWalk.
func (b *Base) SetFaulter(f Faulter) { b.faulter = f }

// PhysAccess performs a physically addressed access (synonym data, PTE
// fetches, baseline data) through the hierarchy and DRAM, returning the
// latency and whether the LLC missed.
func (b *Base) PhysAccess(core int, kind cache.AccessKind, pa addr.PA, perm addr.Perm) (uint64, cache.AccessResult) {
	res := b.Hier.AccessScratch(core, kind, addr.PhysName(pa), perm)
	lat := res.Latency
	if res.LLCMiss {
		lat += b.DRAM.Access(pa)
	}
	// Physical writebacks need no translation; ignore res.Writebacks here.
	return lat, res
}

// TimedWalk performs a hardware page walk for (proc, va), fetching each
// PTE through the cache hierarchy (so large caches absorb walk traffic).
// It returns the leaf, the total latency, and whether the walk succeeded.
//
// When a Faulter is attached, a walk attempt may fail transiently (a
// soft error on a PTE fetch): the walker detects the bad fetch, charges
// WalkRetryLatency, and re-issues the walk up to MaxWalkRetries times.
// The page-table state itself is untouched, so a retried walk returns the
// same leaf a clean walk would have — injected walk faults perturb timing
// and walk traffic, never translation results.
func (b *Base) TimedWalk(core int, proc *osmodel.Process, va addr.VA) (pte WalkLeaf, latency uint64, ok bool) {
	for attempt := 0; ; attempt++ {
		b.Acc.Access(energy.PageWalk, 1)
		path, steps, leaf, found := proc.PT.WalkPath(va)
		for _, slot := range path[:steps] {
			b.WalkSteps.Inc()
			lat, _ := b.PhysAccess(core, cache.Read, slot, addr.PermRO)
			latency += lat
		}
		transient := b.faulter != nil && attempt < MaxWalkRetries && b.faulter.FailWalk(core)
		b.Counts.Walk(steps)
		if transient {
			b.WalkRetries.Inc()
			latency += WalkRetryLatency
			continue
		}
		if !found {
			return WalkLeaf{}, latency, false
		}
		return WalkLeaf{
			Frame:  leaf.Frame,
			Perm:   leaf.Perm,
			Shared: leaf.Shared,
			Huge:   leaf.Huge,
		}, latency, true
	}
}

// WalkLeaf is the result of a page walk.
type WalkLeaf struct {
	Frame  uint64
	Perm   addr.Perm
	Shared bool
	// Huge marks a 2 MiB leaf; Frame is then the 2 MiB-aligned frame.
	Huge bool
}

// PA composes the leaf with the in-page offset.
func (l WalkLeaf) PA(va addr.VA) addr.PA {
	if l.Huge {
		return addr.FrameToPA(l.Frame) + addr.PA(uint64(va)&(addr.HugePageSize-1))
	}
	return addr.FrameToPA(l.Frame) + addr.PA(va.PageOffset())
}

// FrameFor4K returns the 4 KiB frame backing va — for huge leaves this
// "fractures" the mapping into the page-granular TLB entries real CPUs
// install when a structure only supports 4 KiB translations.
func (l WalkLeaf) FrameFor4K(va addr.VA) uint64 {
	if !l.Huge {
		return l.Frame
	}
	return l.Frame + (uint64(va)>>addr.PageBits)&(addr.HugePageSize/addr.PageSize-1)
}

// HandleFault invokes the OS fault handler and returns its latency and
// whether it repaired the mapping. Front ends and cache stages go through
// Engine.Fault, which re-runs a repaired reference; only the post-LLC
// backends call it directly, since their faults (a mapped page that
// delayed translation cannot resolve) are never repaired.
func (b *Base) HandleFault(proc *osmodel.Process, va addr.VA, isWrite bool) (uint64, bool) {
	b.Faults.Inc()
	ok := proc.HandleFault(va, isWrite)
	b.Counts.Fault(ok)
	return FaultLatency, ok
}
