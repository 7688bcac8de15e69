package fault_test

import (
	"testing"

	"hybridvc"
	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/fault"
	"hybridvc/internal/tlb"
	"hybridvc/internal/workload"
)

// faultSpec is a small postgres-like multi-process sharing workload: big
// enough to exercise synonym classification, private regions and TLB
// fill, small enough to keep the checker sweeps cheap.
func faultSpec() workload.Spec {
	const mib = uint64(1) << 20
	return workload.Spec{
		Name: "faulty", Regions: []uint64{4 * mib, 4 * mib}, TouchFrac: 0.9,
		MemRatio: 0.5, StoreFrac: 0.3, Pattern: workload.Zipf, HotFrac: 0.1,
		DepFrac: 0.3, Procs: 2, SharedBytes: 2 * mib, SharedAccessFrac: 0.25,
	}
}

// buildFaulty assembles a system with a checker-audited injector attached.
func buildFaulty(t *testing.T, org hybridvc.Organization, fcfg fault.Config) (*hybridvc.System, *fault.Injector, *fault.Checker) {
	t.Helper()
	sys, err := hybridvc.New(hybridvc.Config{Org: org})
	if err != nil {
		t.Fatalf("New(%s): %v", org, err)
	}
	inj, ch := sys.InjectFaults(fcfg)
	if err := sys.LoadSpec(faultSpec()); err != nil {
		t.Fatalf("LoadSpec(%s): %v", org, err)
	}
	return sys, inj, ch
}

// TestSeedDeterminism pins the injector's core contract: the same seed
// and configuration produce a byte-identical report and an identical
// fault schedule.
func TestSeedDeterminism(t *testing.T) {
	run := func() (string, map[string]uint64, uint64) {
		sys, inj, ch := buildFaulty(t, hybridvc.HybridManySegSC, fault.Config{Seed: 7, Period: 1024})
		rep, err := sys.Run(30_000)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := inj.Err(); err != nil {
			t.Fatalf("invariant violation: %v", err)
		}
		return rep.JSON(), inj.Counts(), ch.Checks
	}
	j1, c1, n1 := run()
	j2, c2, n2 := run()
	if j1 != j2 {
		t.Errorf("same seed produced different reports")
	}
	if n1 != n2 {
		t.Errorf("check counts differ: %d vs %d", n1, n2)
	}
	total := uint64(0)
	for k, v := range c1 {
		if c2[k] != v {
			t.Errorf("fault kind %s: %d vs %d injections", k, v, c2[k])
		}
		total += v
	}
	if total == 0 {
		t.Fatalf("no faults injected")
	}
}

// TestDifferentSeedsDiverge guards against the injector ignoring its seed.
func TestDifferentSeedsDiverge(t *testing.T) {
	run := func(seed int64) string {
		sys, _, _ := buildFaulty(t, hybridvc.HybridManySegSC, fault.Config{Seed: seed, Period: 1024})
		rep, err := sys.Run(30_000)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep.JSON()
	}
	if run(3) == run(4) {
		t.Errorf("different seeds produced identical reports (injector not seeded?)")
	}
}

// TestAllOrgsAllFaults runs every organization under every fault kind
// (and once under the full mix) with the invariant checker auditing after
// each injection. Faults must perturb timing and traffic, never
// correctness.
func TestAllOrgsAllFaults(t *testing.T) {
	for _, org := range hybridvc.Organizations() {
		org := org
		cases := make(map[string][]fault.Kind, len(fault.AllKinds())+1)
		for _, k := range fault.AllKinds() {
			cases[k.String()] = []fault.Kind{k}
		}
		cases["mixed"] = nil // all kinds
		for label, ks := range cases {
			label, ks := label, ks
			t.Run(string(org)+"/"+label, func(t *testing.T) {
				t.Parallel()
				sys, inj, ch := buildFaulty(t, org, fault.Config{Seed: 11, Period: 512, Kinds: ks})
				if _, err := sys.Run(8_000); err != nil {
					t.Fatalf("Run: %v", err)
				}
				if err := inj.Err(); err != nil {
					t.Fatalf("invariant violation under %s: %v", label, err)
				}
				if err := ch.Check(); err != nil {
					t.Fatalf("final check: %v", err)
				}
				if inj.Total() == 0 && inj.Skipped == 0 {
					t.Fatalf("injector never fired (period too large for run length?)")
				}
			})
		}
	}
}

// TestWalkTransientRetries verifies that armed walk transients actually
// exercise the bounded-retry path.
func TestWalkTransientRetries(t *testing.T) {
	sys, inj, _ := buildFaulty(t, hybridvc.Baseline,
		fault.Config{Seed: 5, Period: 256, Kinds: []fault.Kind{fault.WalkTransient}, Burst: 16})
	if _, err := sys.Run(30_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := inj.Err(); err != nil {
		t.Fatalf("invariant violation: %v", err)
	}
	base := sys.Mem.BaseState()
	if base.WalkRetries.Value() == 0 {
		t.Fatalf("no walk retries recorded; injected=%d", inj.Injected[fault.WalkTransient])
	}
}

// TestCheckerDetectsFilterFalseNegative proves the checker is not
// vacuous: clearing a live synonym filter without the OS rebuild must be
// reported as a false negative.
func TestCheckerDetectsFilterFalseNegative(t *testing.T) {
	sys, err := hybridvc.New(hybridvc.Config{Org: hybridvc.HybridManySegSC})
	if err != nil {
		t.Fatal(err)
	}
	ch := sys.AttachChecker()
	if err := sys.LoadSpec(faultSpec()); err != nil {
		t.Fatal(err)
	}
	if err := ch.Check(); err != nil {
		t.Fatalf("clean system failed check: %v", err)
	}
	for _, asid := range sys.Kernel.ASIDs() {
		sys.Kernel.Process(asid).Filter.Clear()
	}
	if err := ch.Check(); err == nil {
		t.Fatalf("cleared filter over live synonym ranges not detected")
	}
}

// TestCheckerDetectsStaleLine proves the one-name audit resolves virtual
// lines through the page tables: a line cached for an unmapped page is a
// violation.
func TestCheckerDetectsStaleLine(t *testing.T) {
	sys, err := hybridvc.New(hybridvc.Config{Org: hybridvc.HybridManySegSC})
	if err != nil {
		t.Fatal(err)
	}
	ch := sys.AttachChecker()
	if err := sys.LoadSpec(faultSpec()); err != nil {
		t.Fatal(err)
	}
	asid := sys.Kernel.ASIDs()[0]
	sys.Mem.Hierarchy().Access(0, cache.Read, addr.VirtName(asid, 0xdead_f000), addr.PermRW)
	if err := ch.Check(); err == nil {
		t.Fatalf("virtual line for unmapped page not detected")
	}
}

// TestCheckerDetectsBogusTLBEntry proves the translation-coherence audit
// compares entries against the page tables.
func TestCheckerDetectsBogusTLBEntry(t *testing.T) {
	sys, err := hybridvc.New(hybridvc.Config{Org: hybridvc.HybridManySegSC})
	if err != nil {
		t.Fatal(err)
	}
	ch := sys.AttachChecker()
	if err := sys.LoadSpec(faultSpec()); err != nil {
		t.Fatal(err)
	}
	asid := sys.Kernel.ASIDs()[0]
	m := sys.Mem.(*core.HybridMMU)
	m.SynTLB(0).Insert(tlb.Entry{ASID: asid, VPN: 0x9999_9, PFN: 0x42})
	if err := ch.Check(); err == nil {
		t.Fatalf("TLB entry for unmapped page not detected")
	}
}

// TestCheckerDetectsCountDrift proves the reconciliation audit compares
// the pipeline counts with Base's counters: a fault counted by Base
// alone is a violation.
func TestCheckerDetectsCountDrift(t *testing.T) {
	sys, err := hybridvc.New(hybridvc.Config{Org: hybridvc.HybridManySegSC})
	if err != nil {
		t.Fatal(err)
	}
	ch := sys.AttachChecker()
	if err := sys.LoadSpec(faultSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(8_000); err != nil {
		t.Fatal(err)
	}
	if err := ch.Check(); err != nil {
		t.Fatalf("clean system failed check: %v", err)
	}
	sys.Mem.BaseState().Faults.Inc()
	if err := ch.Check(); err == nil {
		t.Fatalf("fault counted by Base alone not detected")
	}
}
