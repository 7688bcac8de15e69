// Cross-organization count consistency: pipeline.Counts is the only
// record of per-reference events, so its fields are checked against one
// another, by the relations the design fixes between the structures an
// organization probes, and against Base's fault and walk-step counters.
package hybridvc_test

import (
	"testing"

	"hybridvc"
	"hybridvc/internal/baseline"
	"hybridvc/internal/core"
	"hybridvc/internal/pipeline"
)

// TestProbeCountsMatchStats runs a short window of gups (no synonyms,
// miss-heavy) and postgres (synonym candidates) on every organization and
// checks its counts: the generic pipeline invariants, the two Base
// reconciliation pairs, and each organization's design relations.
func TestProbeCountsMatchStats(t *testing.T) {
	const insns = 20_000
	for _, org := range hybridvc.Organizations() {
		org := org
		t.Run(string(org), func(t *testing.T) {
			for _, wl := range []string{"gups", "postgres"} {
				t.Run(wl, func(t *testing.T) { checkCounts(t, org, wl, insns) })
			}
		})
	}
}

func checkCounts(t *testing.T, org hybridvc.Organization, wl string, insns uint64) {
	sys, err := hybridvc.New(hybridvc.Config{Org: org, LLCBytes: 256 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadWorkload(wl); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(insns); err != nil {
		t.Fatal(err)
	}
	base := sys.Mem.BaseState()
	c := &base.Counts

	eq := func(name string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %d != %d", name, got, want)
		}
	}

	// Generic pipeline invariants.
	if c.RouteTotal == 0 {
		t.Fatal("no routes counted")
	}
	eq("routes-sum", c.RouteTotal, c.Routes[0]+c.Routes[1]+c.Routes[2])
	eq("cache-accesses vs non-done routes", c.CacheAccesses,
		c.Routes[pipeline.Physical]+c.Routes[pipeline.Virtual])
	eq("cache-accesses vs hit levels", c.CacheAccesses,
		c.CacheHitLevel[0]+c.CacheHitLevel[1]+c.CacheHitLevel[2]+c.CacheHitLevel[3])
	eq("llc-misses vs memory-level hits", c.LLCMisses, c.CacheHitLevel[0])
	if c.FaultsFixed > c.Faults {
		t.Errorf("fixed faults %d > faults %d", c.FaultsFixed, c.Faults)
	}
	if c.FalsePositives > c.FilterCandidates {
		t.Errorf("false positives %d > filter candidates %d", c.FalsePositives, c.FilterCandidates)
	}

	// Base's two counters.
	eq("faults", c.Faults, base.Faults.Value())
	// The walk oracle: a native walk fetches at most 4 PTEs, a nested 2D
	// walk at most 24. The 2D organizations walk nested tables outside
	// Base.TimedWalk, so only the native ones pin Base.WalkSteps.
	maxSteps := uint64(4)
	if org.Virtualized() {
		maxSteps = 24
	} else {
		eq("walk-steps", c.WalkSteps, base.WalkSteps.Value())
	}
	if c.WalkSteps > maxSteps*c.Walks {
		t.Errorf("%d walk steps in %d walks: more than %d per walk", c.WalkSteps, c.Walks, maxSteps)
	}

	// Design relations: each structure is looked up exactly when the one
	// in front of it could not answer.
	l2AfterL1 := func() {
		t.Helper()
		eq("L2 TLB lookups vs L1 TLB misses", c.TLBLookups[pipeline.TLBL2], c.Misses(pipeline.TLBL1))
	}
	switch m := sys.Mem.(type) {
	case *core.HybridMMU:
		eq("synonym TLB lookups vs filter candidates", c.TLBLookups[pipeline.TLBSynonym], c.FilterCandidates)
		if org == hybridvc.Enigma {
			// Enigma bypasses the synonym filter entirely.
			eq("filter probes (bypassed)", c.FilterProbes, 0)
		} else {
			eq("filter probes vs routes", c.FilterProbes, c.RouteTotal)
		}
		if m.DelayedTLB() != nil {
			eq("delayed TLB lookups vs delayed translations", c.TLBLookups[pipeline.TLBDelayed],
				c.DelayedDemand+c.DelayedWritebacks)
		}
	case *core.VirtHybridMMU:
		eq("synonym TLB lookups vs filter candidates", c.TLBLookups[pipeline.TLBSynonym], c.FilterCandidates)
		eq("filter probes vs routes", c.FilterProbes, c.RouteTotal)
	case *core.RLTVC:
		eq("record-cache lookups vs routes", c.TLBLookups[pipeline.TLBRLT], c.RouteTotal)
		eq("record-block probes vs record-cache misses", c.TLBLookups[pipeline.TLBXlatCache],
			c.Misses(pipeline.TLBRLT))
		eq("filter probes vs routes", c.FilterProbes, c.RouteTotal)
		eq("false positives (exact records)", c.FalsePositives, 0)
	case *baseline.Conventional, *baseline.DirectSegment, *baseline.Virt2D:
		l2AfterL1()
	case *baseline.Victima:
		l2AfterL1()
		eq("translation-block probes vs L2 TLB misses", c.TLBLookups[pipeline.TLBXlatCache],
			c.Misses(pipeline.TLBL2))
	case *baseline.OVC:
		l2AfterL1()
		// OVC probes its (vestigial) filter on every reference.
		eq("filter probes vs routes", c.FilterProbes, c.RouteTotal)
	case *baseline.RMM:
		eq("range TLB lookups vs L1 TLB misses", c.TLBLookups[pipeline.TLBRange], c.Misses(pipeline.TLBL1))
	}
}
