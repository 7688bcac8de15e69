// Tests pinning the engine's one fault rule: in every organization a
// repaired OS fault charges FaultLatency and re-runs its reference from
// the front end, so the faulting reference reports the re-run's outcome
// and the next reference to the page needs no fault at all.
package hybridvc_test

import (
	"testing"

	"hybridvc"
	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/osmodel"
)

// TestFaultRuleEveryOrganization reads a demand-paged page twice, then
// reads a content-shared page and writes it twice, on every organization.
// Each fault (the first touch, the copy-on-write break) is repaired, so
// its reference re-runs once, and a cold page's re-run comes from memory;
// each repeat is a fault-free L1 hit.
func TestFaultRuleEveryOrganization(t *testing.T) {
	for _, org := range hybridvc.Organizations() {
		org := org
		t.Run(string(org), func(t *testing.T) {
			sys, err := hybridvc.New(hybridvc.Config{Org: org, PhysBytes: 1 << 30, GuestBytes: 256 << 20})
			if err != nil {
				t.Fatal(err)
			}
			ch := sys.AttachChecker()
			k := sys.Kernel
			counts := &sys.Mem.BaseState().Counts
			l1Hit := sys.Mem.Hierarchy().L1D(0).Config().HitLatency
			p1, _ := k.NewProcess()
			p2, _ := k.NewProcess()
			access := func(p *osmodel.Process, kind cache.AccessKind, va addr.VA) core.Result {
				return sys.Mem.Access(core.Request{Kind: kind, VA: va, Proc: p})
			}
			faulted := func(step string, r core.Result, fixed uint64) {
				t.Helper()
				if !r.Fault || r.Latency < core.FaultLatency {
					t.Errorf("%s: Fault=%v latency %d, want a fault costing at least %d",
						step, r.Fault, r.Latency, core.FaultLatency)
				}
				if r.HitLevel != 0 || !r.LLCMiss {
					t.Errorf("%s: HitLevel=%d LLCMiss=%v, want the re-run's miss to memory",
						step, r.HitLevel, r.LLCMiss)
				}
				if counts.FaultsFixed != fixed || counts.Retries != fixed {
					t.Errorf("%s: %d faults fixed, %d re-runs; want %d of each",
						step, counts.FaultsFixed, counts.Retries, fixed)
				}
			}
			repeated := func(step string, r core.Result) {
				t.Helper()
				if r.Fault || r.HitLevel != 1 {
					t.Errorf("%s: Fault=%v HitLevel=%d, want a fault-free L1 hit", step, r.Fault, r.HitLevel)
				}
			}

			demand, err := p1.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{Demand: true})
			if err != nil {
				t.Fatal(err)
			}
			faulted("demand read", access(p1, cache.Read, demand), 1)
			repeated("second demand read", access(p1, cache.Read, demand))

			va1, _ := p1.Mmap(addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
			va2, _ := p2.Mmap(addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
			if err := k.ContentShare(p2, va2, p1, va1); err != nil {
				t.Fatal(err)
			}
			if r := access(p2, cache.Read, va2); r.Fault {
				t.Error("read of a content-shared page faulted")
			}
			faulted("CoW write", access(p2, cache.Write, va2), 2)
			w := access(p2, cache.Write, va2)
			repeated("second write", w)
			if w.Latency != l1Hit {
				t.Errorf("second write took %d cycles, want the L1D hit latency %d", w.Latency, l1Hit)
			}

			if k.PageFaults.Value() != 1 || k.CoWFaults.Value() != 1 {
				t.Errorf("kernel saw %d page faults and %d CoW faults, want 1 and 1",
					k.PageFaults.Value(), k.CoWFaults.Value())
			}
			pte1, _ := p1.PT.Lookup(va1)
			pte2, _ := p2.PT.Lookup(va2)
			if pte1.Frame == pte2.Frame {
				t.Error("the CoW write left both processes on one frame")
			}
			if err := ch.Check(); err != nil {
				t.Error(err)
			}
		})
	}
}
