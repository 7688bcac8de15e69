package pipeline

import "hybridvc/internal/stats"

// TLBLevel identifies a TLB structure in Counts.
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

// Counts tallies what every reference does on its way through the
// pipeline: routing verdicts, filter verdicts, TLB lookups by structure,
// hit levels, walks, delayed translations, faults and retries. Base owns
// one, always on, counting from the system's construction; each count is
// updated next to the organization counter it mirrors, so the two
// reconcile exactly (see counts_test.go at the repository root). Refs,
// hit levels and per-reference LLC misses have no other counter in any
// organization. Timelines and the fault checker read it; the simulation
// goroutine updates it, so readers run between accesses.
type Counts struct {
	// Routes counts references by front-end verdict (indexed by Verdict).
	Routes [3]uint64
	// RouteTotal counts every reference entering the pipeline, fault
	// retries included.
	RouteTotal uint64

	FilterProbes     uint64
	FilterCandidates uint64
	// FalsePositives counts filter candidates the synonym TLB corrected
	// to non-synonyms.
	FalsePositives uint64

	// TLBLookups and TLBHits are indexed by TLBLevel.
	TLBLookups [NumTLBLevels]uint64
	TLBHits    [NumTLBLevels]uint64

	// CacheAccesses counts references that reached the cache stage.
	CacheAccesses uint64
	// CacheHitLevel counts them by Result.HitLevel (0 = memory).
	CacheHitLevel [4]uint64
	LLCMisses     uint64

	// Walks counts timed page walks (native 1D or nested 2D) and
	// WalkSteps the PTE fetches they issued.
	Walks     uint64
	WalkSteps uint64

	// Delayed translations after the LLC, demand or writeback; SC hits
	// took the segment-cache fast path, faults found no translation.
	DelayedDemand     uint64
	DelayedWritebacks uint64
	DelayedSCHits     uint64
	DelayedFaults     uint64

	// Faults counts OS fault-handler invocations, FaultsFixed those that
	// repaired the mapping, Retries the re-executions that followed.
	Faults      uint64
	FaultsFixed uint64
	Retries     uint64

	// WalkDepth samples the depth of every walk and delayed translation:
	// PTE fetches of a walk, index-tree nodes of a segment translation,
	// walk steps behind a delayed-TLB fill, 0 on a fast-path hit. Unlike
	// the counts, a timeline Run resets it at its start and at every
	// window flush.
	WalkDepth *stats.Histogram
}

// Route counts a reference entering the pipeline with the front end's
// verdict.
func (c *Counts) Route(v Verdict) {
	c.RouteTotal++
	c.Routes[v]++
}

// Filter counts one synonym-filter probe.
func (c *Counts) Filter(candidate bool) {
	c.FilterProbes++
	if candidate {
		c.FilterCandidates++
	}
}

// FalsePositive counts a filter candidate the synonym TLB revealed to be
// a non-synonym.
func (c *Counts) FalsePositive() { c.FalsePositives++ }

// TLB counts one lookup in the level structure.
func (c *Counts) TLB(level TLBLevel, hit bool) {
	c.TLBLookups[level]++
	if hit {
		c.TLBHits[level]++
	}
}

// TwoLevelTLB counts a conventional two-level lookup by the level that
// hit (1 or 2, 0 for a miss in both): the L2 is looked up only after an
// L1 miss.
func (c *Counts) TwoLevelTLB(level int) {
	c.TLB(TLBL1, level == 1)
	if level != 1 {
		c.TLB(TLBL2, level == 2)
	}
}

// Cache counts a reference that completed the cache stage, by the level
// that supplied its data.
func (c *Counts) Cache(hitLevel int, llcMiss bool) {
	c.CacheAccesses++
	if hitLevel >= 0 && hitLevel < len(c.CacheHitLevel) {
		c.CacheHitLevel[hitLevel]++
	}
	if llcMiss {
		c.LLCMisses++
	}
}

// Walk counts one timed page walk of steps fetches.
func (c *Counts) Walk(steps int) {
	c.Walks++
	c.WalkSteps += uint64(steps)
	c.WalkDepth.Observe(uint64(steps))
}

// Delayed counts one delayed translation after the LLC.
func (c *Counts) Delayed(writeback, scHit bool, depth int, fault bool) {
	if writeback {
		c.DelayedWritebacks++
	} else {
		c.DelayedDemand++
	}
	if scHit {
		c.DelayedSCHits++
	}
	if fault {
		c.DelayedFaults++
	}
	c.WalkDepth.Observe(uint64(depth))
}

// Fault counts one OS fault-handler invocation.
func (c *Counts) Fault(fixed bool) {
	c.Faults++
	if fixed {
		c.FaultsFixed++
	}
}

// Retry counts a faulted reference re-executed after the OS repaired the
// mapping.
func (c *Counts) Retry() { c.Retries++ }
