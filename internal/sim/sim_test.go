package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hybridvc/internal/baseline"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/workload"
)

func smallHier(n int) cache.HierarchyConfig {
	cfg := cache.DefaultHierarchyConfig(n)
	cfg.LLC.SizeBytes = 256 << 10 // shrink so misses occur within short runs
	return cfg
}

func newHybridSim(t *testing.T, wl string, cores int) *Simulator {
	t.Helper()
	return newSimWithConfig(t, wl, cores, DefaultConfig())
}

func newSimWithConfig(t *testing.T, wl string, cores int, cfg Config) *Simulator {
	t.Helper()
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 16 << 30})
	hcfg := core.DefaultHybridConfig(cores)
	hcfg.Hier = smallHier(cores)
	ms := core.NewHybridMMU(hcfg, k)
	gens, err := workload.NewGroup(workload.Specs[wl], k, 1)
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg, ms, gens)
}

func TestRunProducesSaneReport(t *testing.T) {
	s := newHybridSim(t, "stream", 1)
	r := s.Run(20000)
	if r.Instructions != 20000 {
		t.Errorf("instructions = %d", r.Instructions)
	}
	if r.Cycles == 0 || r.IPC <= 0 || r.IPC > 5 {
		t.Errorf("implausible report: %+v", r)
	}
	if r.TranslationEnergyPJ <= 0 {
		t.Error("no translation energy")
	}
	if r.Name != "hybrid-manyseg+sc" {
		t.Errorf("name = %q", r.Name)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := newHybridSim(t, "mcf", 1).Run(15000)
	b := newHybridSim(t, "mcf", 1).Run(15000)
	if a.Cycles != b.Cycles || a.DynamicEnergyPJ != b.DynamicEnergyPJ {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestMultiProcessWorkloadTimeslices(t *testing.T) {
	// postgres has 4 processes; on 1 core they must timeslice.
	s := newHybridSim(t, "postgres", 1)
	s.Run(200000)
	if s.ContextSwitches.Value() < 3 {
		t.Errorf("context switches = %d", s.ContextSwitches.Value())
	}
}

func TestMultiCoreDistribution(t *testing.T) {
	s := newHybridSim(t, "postgres", 4)
	r := s.Run(10000)
	if len(r.PerCoreIPC) != 4 {
		t.Errorf("per-core IPCs = %d", len(r.PerCoreIPC))
	}
	if r.Instructions != 40000 {
		t.Errorf("instructions = %d", r.Instructions)
	}
	if s.ContextSwitches.Value() != 0 {
		t.Error("4 procs on 4 cores should not context switch")
	}
}

func TestPointerChaseSlowerThanStream(t *testing.T) {
	// A basic sanity ordering: dependent random access must run at far
	// lower IPC than streaming.
	chase := newHybridSim(t, "mcf", 1).Run(20000)
	stream := newHybridSim(t, "stream", 1).Run(20000)
	if chase.IPC >= stream.IPC {
		t.Errorf("mcf IPC %.3f >= stream IPC %.3f", chase.IPC, stream.IPC)
	}
}

func TestHybridBeatsBaselineOnTLBThrashingWorkload(t *testing.T) {
	// The paper's headline direction: for big-memory workloads the hybrid
	// design outperforms the conventional baseline because LLC hits skip
	// translation entirely and delayed translation is scalable.
	run := func(mk func(k *osmodel.Kernel) core.MemSystem) Report {
		k := osmodel.NewKernel(osmodel.Config{PhysBytes: 16 << 30})
		ms := mk(k)
		gens, err := workload.NewGroup(workload.Specs["gups"], k, 1)
		if err != nil {
			t.Fatal(err)
		}
		return New(DefaultConfig(), ms, gens).Run(30000)
	}
	hybrid := run(func(k *osmodel.Kernel) core.MemSystem {
		cfg := core.DefaultHybridConfig(1)
		cfg.Hier = smallHier(1)
		return core.NewHybridMMU(cfg, k)
	})
	base := run(func(k *osmodel.Kernel) core.MemSystem {
		cfg := baseline.DefaultConfig(1)
		cfg.Hier = smallHier(1)
		return baseline.NewConventional(cfg, k)
	})
	if hybrid.Cycles >= base.Cycles {
		t.Errorf("hybrid (%d cycles) not faster than baseline (%d) on gups",
			hybrid.Cycles, base.Cycles)
	}
}

func TestHybridSavesTranslationEnergy(t *testing.T) {
	// The ~60% translation-energy claim: on a workload with locality the
	// baseline still pays a TLB probe on every reference, while the
	// hybrid pays a cheap filter probe and touches the delayed structures
	// only on LLC misses (mostly segment cache hits).
	spec := workload.Spec{
		Name: "server-mix", Regions: []uint64{64 << 20}, TouchFrac: 1.0,
		MemRatio: 0.4, StoreFrac: 0.3, Pattern: workload.Zipf,
		HotFrac: 0.008, DepFrac: 0.2,
	}
	run := func(mk func(k *osmodel.Kernel) core.MemSystem) Report {
		k := osmodel.NewKernel(osmodel.Config{PhysBytes: 16 << 30})
		ms := mk(k)
		gens, err := workload.NewGroup(spec, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		return New(DefaultConfig(), ms, gens).Run(100000)
	}
	hybrid := run(func(k *osmodel.Kernel) core.MemSystem {
		return core.NewHybridMMU(core.DefaultHybridConfig(1), k)
	})
	base := run(func(k *osmodel.Kernel) core.MemSystem {
		return baseline.NewConventional(baseline.DefaultConfig(1), k)
	})
	saving := 1 - hybrid.TranslationEnergyPJ/base.TranslationEnergyPJ
	if saving < 0.5 {
		t.Errorf("translation energy saving %.0f%% (hybrid %.0f vs base %.0f pJ)",
			100*saving, hybrid.TranslationEnergyPJ, base.TranslationEnergyPJ)
	}
}

func TestNewPanicsWithoutGenerators(t *testing.T) {
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 28})
	ms := baseline.NewIdeal(baseline.DefaultConfig(1), k)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(DefaultConfig(), ms, nil)
}

// TestStopFlushesPartialReport pins the interruption contract: Stop()
// quiesces the simulator at a chunk boundary, and the resulting report
// is a valid — just shorter — run marked Interrupted.
func TestStopFlushesPartialReport(t *testing.T) {
	s := newHybridSim(t, "stream", 1)
	s.Stop() // request a stop before Run: quiesce after the first chunk
	r := s.Run(1_000_000)
	if !s.Interrupted() || !r.Interrupted {
		t.Fatalf("Interrupted() = %v, report.Interrupted = %v after Stop",
			s.Interrupted(), r.Interrupted)
	}
	if r.Instructions == 0 || r.Instructions >= 1_000_000 {
		t.Errorf("partial run retired %d instructions, want (0, 1000000)", r.Instructions)
	}
	if r.Cycles == 0 || r.IPC <= 0 {
		t.Errorf("partial report is not valid: %+v", r)
	}
	if !strings.Contains(r.JSON(), `"interrupted": true`) {
		t.Error("JSON report does not carry the interrupted flag")
	}
}

// TestRunContextStopsOnCancel: a cancelled context stops the run at a
// chunk boundary, and the error wraps the context's cause; a live
// context leaves a completed run error-free.
func TestRunContextStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := newHybridSim(t, "stream", 1).RunContext(ctx, 1_000_000)
	if !errors.Is(err, context.Canceled) || !r.Interrupted {
		t.Fatalf("cancelled run: err %v, interrupted %v", err, r.Interrupted)
	}
	if r.Instructions == 0 || r.Instructions >= 1_000_000 {
		t.Errorf("cancelled run retired %d instructions, want (0, 1000000)", r.Instructions)
	}
	r, err = newHybridSim(t, "stream", 1).RunContext(context.Background(), 5000)
	if err != nil || r.Interrupted || r.Instructions != 5000 {
		t.Errorf("live run: err %v, report %+v", err, r)
	}
}

// TestInterleaveValueIsNeutralOnOneCore pins that Interleave is purely an
// implementation batch size: on a single core any value — 1, a prime, the
// default, or one exceeding the whole run — yields byte-identical reports.
func TestInterleaveValueIsNeutralOnOneCore(t *testing.T) {
	var base string
	for _, ilv := range []int{1, 7, 128, 1 << 20} {
		cfg := DefaultConfig()
		cfg.Interleave = ilv
		r := newSimWithConfig(t, "mcf", 1, cfg).Run(3_333)
		if got := r.JSON(); base == "" {
			base = got
		} else if got != base {
			t.Errorf("Interleave=%d diverges:\n%s\nwant:\n%s", ilv, got, base)
		}
	}
}

// TestStopQuiescesParallelRun extends the interruption contract to a
// 4-core run: Stop() still quiesces at a chunk-round boundary with a
// valid partial report.
func TestStopQuiescesParallelRun(t *testing.T) {
	s := newHybridSim(t, "postgres", 4)
	s.Stop()
	r := s.Run(1_000_000)
	if !s.Interrupted() || !r.Interrupted {
		t.Fatalf("Interrupted() = %v, report.Interrupted = %v after Stop",
			s.Interrupted(), r.Interrupted)
	}
	if r.Instructions == 0 || r.Instructions >= 4_000_000 {
		t.Errorf("partial run retired %d instructions", r.Instructions)
	}
	if r.Cycles == 0 || r.IPC <= 0 {
		t.Errorf("partial report is not valid: %+v", r)
	}
}

// TestCompletedReportOmitsInterrupted keeps existing JSON outputs
// byte-stable: a run that finishes normally must not gain the field.
func TestCompletedReportOmitsInterrupted(t *testing.T) {
	r := newHybridSim(t, "stream", 1).Run(5000)
	if r.Interrupted {
		t.Fatal("completed run marked interrupted")
	}
	if strings.Contains(r.JSON(), "interrupted") {
		t.Error("completed report JSON mentions interrupted")
	}
}
