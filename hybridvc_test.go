package hybridvc

import (
	"strings"
	"testing"

	"hybridvc/internal/stats"
)

func TestAllOrganizationsRun(t *testing.T) {
	for _, org := range Organizations() {
		org := org
		t.Run(string(org), func(t *testing.T) {
			sys, err := New(Config{Org: org, LLCBytes: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.LoadWorkload("stream"); err != nil {
				t.Fatal(err)
			}
			r, err := sys.Run(5000)
			if err != nil {
				t.Fatal(err)
			}
			if r.Instructions != 5000 || r.Cycles == 0 {
				t.Errorf("%s: report %+v", org, r)
			}
		})
	}
}

func TestUnknownOrganization(t *testing.T) {
	if _, err := New(Config{Org: "bogus"}); err == nil {
		t.Error("unknown org accepted")
	}
}

func TestTooManyCores(t *testing.T) {
	if _, err := New(Config{Cores: 65}); err == nil || !strings.Contains(err.Error(), "65 cores") {
		t.Errorf("New with 65 cores: err = %v, want the core limit", err)
	}
}

func TestRunWithoutWorkload(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(100); err == nil {
		t.Error("run without workload succeeded")
	}
}

func TestUnknownWorkload(t *testing.T) {
	sys, _ := New(Config{})
	if err := sys.LoadWorkload("bogus"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Mem.Name() != "hybrid-manyseg+sc" {
		t.Errorf("default org = %s", sys.Mem.Name())
	}
	if sys.Mem.Hierarchy().NumCores() != 1 {
		t.Error("default cores != 1")
	}
}

func TestVirtualizedWiring(t *testing.T) {
	sys, err := New(Config{Org: VirtHybrid, GuestBytes: 1 << 30, PhysBytes: 4 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if sys.VM == nil || sys.Hypervisor == nil {
		t.Fatal("virtualized system missing VM/hypervisor")
	}
	if sys.Kernel != sys.VM.Kernel {
		t.Error("kernel is not the guest kernel")
	}
	if !VirtHybrid.Virtualized() || Baseline.Virtualized() {
		t.Error("Virtualized() wrong")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() uint64 {
		sys, _ := New(Config{Org: HybridManySegSC, Seed: 7, LLCBytes: 256 << 10})
		sys.LoadWorkload("mcf")
		r, _ := sys.Run(10000)
		return r.Cycles
	}
	if run() != run() {
		t.Error("nondeterministic facade runs")
	}
}

// TestRunContinuation pins the documented semantics of repeated Run
// calls: generators continue their stream (a new simulator is built, but
// workload position and memory-system state carry over), so back-to-back
// runs advance through the workload instead of replaying it.
func TestRunContinuation(t *testing.T) {
	sys, err := New(Config{Org: HybridManySegSC, LLCBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadWorkload("mcf"); err != nil {
		t.Fatal(err)
	}
	r1, err := sys.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := sys.Generators()[0].Emitted()
	firstSim := sys.LastSim
	energyBefore := sys.Mem.Energy().Snapshot()
	llcBefore := sys.Mem.Hierarchy().LLC().Stats
	r2, err := sys.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	afterSecond := sys.Generators()[0].Emitted()
	if afterSecond <= afterFirst {
		t.Errorf("generator did not continue: emitted %d then %d", afterFirst, afterSecond)
	}
	if sys.LastSim == firstSim {
		t.Error("second Run reused the first simulator")
	}
	// Each simulator counts only its own window, energy and LLC accesses
	// included: the memory system carries the first run's into the second.
	if r1.Instructions != 5000 || r2.Instructions != 5000 {
		t.Errorf("per-run instruction counts: %d, %d, want 5000 each", r1.Instructions, r2.Instructions)
	}
	if want := sys.Mem.Energy().DynamicSince(energyBefore); r2.DynamicEnergyPJ != want {
		t.Errorf("second report: %.3f pJ dynamic energy, want its own window's %.3f", r2.DynamicEnergyPJ, want)
	}
	llc := sys.Mem.Hierarchy().LLC().Stats
	want := stats.Ratio(llc.Misses.Value()-llcBefore.Misses.Value(), llc.Accesses()-llcBefore.Accesses())
	if r2.LLCMissRate != want {
		t.Errorf("second report: LLC miss rate %.4f, want its own window's %.4f", r2.LLCMissRate, want)
	}
	// A fresh system replaying the same seed reproduces the first window
	// exactly — continuation, by contrast, ran a different window.
	fresh, err := New(Config{Org: HybridManySegSC, LLCBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadWorkload("mcf"); err != nil {
		t.Fatal(err)
	}
	f1, err := fresh.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Cycles != r1.Cycles || f1.DynamicEnergyPJ != r1.DynamicEnergyPJ || f1.LLCMissRate != r1.LLCMissRate {
		t.Errorf("fresh system first window: %d cycles, %.3f pJ, LLC miss rate %.4f; want %d, %.3f, %.4f",
			f1.Cycles, f1.DynamicEnergyPJ, f1.LLCMissRate, r1.Cycles, r1.DynamicEnergyPJ, r1.LLCMissRate)
	}
}
