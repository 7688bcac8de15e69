// Cross-organization count consistency: every organization's
// pipeline.Counts must reconcile exactly with the statistics counters the
// organization maintains itself. Each count is updated next to the
// counter it mirrors, so any drift means a count was added, moved, or
// dropped without its counter.
package hybridvc_test

import (
	"testing"

	"hybridvc"
	"hybridvc/internal/baseline"
	"hybridvc/internal/core"
	"hybridvc/internal/pipeline"
)

// TestProbeCountsMatchStats runs a short gups window on every
// organization and checks the reconciliation invariants of its counts,
// both the generic pipeline ones and the per-organization mechanism
// counters.
func TestProbeCountsMatchStats(t *testing.T) {
	const insns = 20_000
	for _, org := range hybridvc.Organizations() {
		org := org
		t.Run(string(org), func(t *testing.T) {
			sys, err := hybridvc.New(hybridvc.Config{Org: org, LLCBytes: 256 << 10, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.LoadWorkload("gups"); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(insns); err != nil {
				t.Fatal(err)
			}
			base := sys.Mem.BaseState()
			c := &base.Counts

			eq := func(name string, counted, stat uint64) {
				t.Helper()
				if counted != stat {
					t.Errorf("%s: counted %d != stat %d", name, counted, stat)
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

			eq("faults", c.Faults, base.Faults.Value())
			if c.FaultsFixed > c.Faults {
				t.Errorf("fixed faults %d > faults %d", c.FaultsFixed, c.Faults)
			}
			if !org.Virtualized() {
				// The 2D organizations walk nested tables outside
				// Base.TimedWalk, so only the native ones pin WalkSteps.
				eq("walk-steps", c.WalkSteps, base.WalkSteps.Value())
			}

			// Organization-specific mechanism counters.
			switch m := sys.Mem.(type) {
			case *core.HybridMMU:
				eq("synonym candidates", c.FilterCandidates, m.SynonymCandidates.Value())
				eq("synonym TLB lookups", c.TLBLookups[pipeline.TLBSynonym], m.SynonymCandidates.Value())
				eq("false positives", c.FalsePositives, m.FalsePositives.Value())
				eq("delayed demand", c.DelayedDemand, m.DelayedTranslations.Value())
				eq("delayed writebacks", c.DelayedWritebacks, m.WritebackXlations.Value())
				eq("delayed TLB misses",
					c.TLBLookups[pipeline.TLBDelayed]-c.TLBHits[pipeline.TLBDelayed],
					m.DelayedTLBMisses.Value())
				if org == hybridvc.Enigma {
					// Enigma bypasses the synonym filter entirely.
					eq("filter probes (bypassed)", c.FilterProbes, 0)
				} else {
					eq("filter probes", c.FilterProbes,
						m.SynonymCandidates.Value()+m.NonSynonymAccesses.Value())
				}
			case *core.VirtHybridMMU:
				eq("synonym candidates", c.FilterCandidates, m.SynonymCandidates.Value())
				eq("synonym TLB lookups", c.TLBLookups[pipeline.TLBSynonym], m.SynonymCandidates.Value())
				eq("false positives", c.FalsePositives, m.FalsePositives.Value())
				eq("filter probes", c.FilterProbes,
					m.SynonymCandidates.Value()+m.NonSynonymAccesses.Value())
				eq("delayed demand", c.DelayedDemand, m.DelayedTranslations.Value())
				eq("two-step translations",
					c.DelayedDemand+c.DelayedWritebacks-c.DelayedSCHits,
					m.TwoStepXlations.Value())
			case *baseline.Conventional:
				eq("huge TLB hits", c.TLBHits[pipeline.TLBHuge], m.HugeTLBHits.Value())
				eq("TLB miss walks",
					c.TLBLookups[pipeline.TLBL2]-c.TLBHits[pipeline.TLBL2],
					m.TLBMissWalks.Value())
			case *baseline.DirectSegment:
				eq("huge TLB hits", c.TLBHits[pipeline.TLBHuge], m.HugeTLBHits.Value())
				eq("TLB miss walks",
					c.TLBLookups[pipeline.TLBL2]-c.TLBHits[pipeline.TLBL2],
					m.TLBMissWalks.Value())
			case *baseline.RMM:
				eq("range walks",
					c.TLBLookups[pipeline.TLBRange]-c.TLBHits[pipeline.TLBRange],
					m.RangeWalks.Value())
			case *baseline.Victima:
				eq("TLB miss walks",
					c.TLBLookups[pipeline.TLBXlatCache]-c.TLBHits[pipeline.TLBXlatCache],
					m.TLBMissWalks.Value())
				eq("cached xlat hits", c.TLBHits[pipeline.TLBXlatCache], m.CachedXlatHits.Value())
			case *core.RLTVC:
				eq("rlt lookups", c.TLBLookups[pipeline.TLBRLT], c.RouteTotal)
				eq("filter probes", c.FilterProbes,
					m.SynonymCandidates.Value()+m.NonSynonymAccesses.Value())
				eq("synonym candidates", c.FilterCandidates, m.SynonymCandidates.Value())
				eq("false positives (exact records)", c.FalsePositives, 0)
				eq("false positives counter", m.FalsePositives.Value(), 0)
				eq("record rebuilds",
					c.TLBLookups[pipeline.TLBXlatCache]-c.TLBHits[pipeline.TLBXlatCache],
					m.RLTWalks.Value())
				eq("cached record hits", c.TLBHits[pipeline.TLBXlatCache], m.CachedRecordHits.Value())
				eq("delayed demand", c.DelayedDemand, m.DelayedTranslations.Value())
				eq("delayed writebacks", c.DelayedWritebacks, m.WritebackXlations.Value())
			case *baseline.OVC:
				// OVC probes its (vestigial) filter on every reference.
				eq("filter probes", c.FilterProbes, c.RouteTotal)
			case *baseline.Virt2D:
				eq("2D walks", c.Walks, m.Walks2D.Value())
			}
		})
	}
}
