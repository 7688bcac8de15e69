// Package hybridvc is a simulator for hybrid virtual caching with
// efficient synonym filtering and scalable delayed translation, a
// reproduction of Park, Heo and Huh (ISCA 2016).
//
// The package is the public facade over the internal substrates: it builds
// complete systems (OS model + memory system organization + timing cores),
// loads named workloads, and runs simulations:
//
//	sys, err := hybridvc.New(hybridvc.Config{Org: hybridvc.HybridManySegSC})
//	if err != nil { ... }
//	if err := sys.LoadWorkload("gups"); err != nil { ... }
//	report, err := sys.Run(1_000_000)
//
// Organizations cover the paper's evaluated design points: the
// conventional physically addressed baseline, delayed page-granularity
// TLBs of various sizes, many-segment delayed translation with and
// without the segment cache, an ideal (free) TLB, RMM- and direct-
// segment-style range translation, an Enigma-style intermediate address
// design, and the virtualized variants (2D-walk baseline and virtualized
// hybrid).
package hybridvc

import (
	"context"
	"fmt"

	"hybridvc/internal/baseline"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/fault"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/segment"
	"hybridvc/internal/sim"
	"hybridvc/internal/virt"
	"hybridvc/internal/workload"
)

// Organization selects the memory system under test.
type Organization string

// The evaluated organizations.
const (
	// Baseline is the conventional physically addressed system with a
	// two-level TLB (Table IV).
	Baseline Organization = "baseline"
	// Ideal has free address translation (the paper's "ideal TLB").
	Ideal Organization = "ideal"
	// HybridDelayedTLB is hybrid virtual caching with a fixed-granularity
	// delayed TLB (size set by Config.DelayedTLBEntries).
	HybridDelayedTLB Organization = "hybrid-dtlb"
	// HybridManySeg is hybrid virtual caching with many-segment delayed
	// translation, without the segment cache.
	HybridManySeg Organization = "hybrid-manyseg"
	// HybridManySegSC adds the 128-entry segment cache.
	HybridManySegSC Organization = "hybrid-manyseg+sc"
	// Enigma is the intermediate-address-space design: delayed
	// page-granularity translation without a synonym filter.
	Enigma Organization = "enigma"
	// RMM is redundant memory mapping: 32 pre-L1 range entries.
	RMM Organization = "rmm"
	// DirectSegment is a single base/limit/offset segment per process.
	DirectSegment Organization = "direct-segment"
	// OVC is opportunistic virtual caching: only the L1 is virtual, so
	// L1 misses still translate (energy-saving prior work; single-core).
	OVC Organization = "ovc"
	// Virt2D is the virtualized baseline with nested (2D) page walks and
	// a nested-TLB translation cache.
	Virt2D Organization = "virt-2d"
	// VirtHybrid is the virtualized hybrid design (Section V).
	VirtHybrid Organization = "virt-hybrid"
	// Victima backs the conventional two-level TLB with cached translation
	// blocks: TLB misses probe the L2/LLC for the PTE before walking, and
	// walks install their leaves into the caches as typed-payload lines.
	Victima Organization = "victima"
	// RLTVC replaces the hybrid design's Bloom synonym filter with an
	// exact reverse-lookup table whose record blocks are cached in the
	// data hierarchy (zero false positives, capacity stolen from data).
	RLTVC Organization = "rlt-vc"
)

// Organizations lists every selectable organization.
func Organizations() []Organization {
	return []Organization{
		Baseline, Ideal, HybridDelayedTLB, HybridManySeg, HybridManySegSC,
		Enigma, RMM, DirectSegment, OVC, Virt2D, VirtHybrid, Victima, RLTVC,
	}
}

// Virtualized reports whether the organization runs inside a VM.
func (o Organization) Virtualized() bool { return o == Virt2D || o == VirtHybrid }

// Config assembles a system.
type Config struct {
	// Org selects the memory system organization (default HybridManySegSC).
	Org Organization
	// Cores is the hardware core count (default 1).
	Cores int
	// PhysBytes is the physical (or machine) memory size (default 16 GiB).
	PhysBytes uint64
	// GuestBytes is the VM size for virtualized organizations
	// (default 4 GiB).
	GuestBytes uint64
	// DelayedTLBEntries sizes the delayed TLB for HybridDelayedTLB and
	// Enigma (default 1024).
	DelayedTLBEntries int
	// IndexCacheBytes sizes the index cache (default 32 KiB).
	IndexCacheBytes int
	// LLCBytes overrides the shared LLC capacity (default 2 MiB).
	LLCBytes int
	// Sim configures the timing harness.
	Sim sim.Config
	// Seed drives all workload randomness (default 1).
	Seed int64
}

func (c *Config) fillDefaults() {
	if c.Org == "" {
		c.Org = HybridManySegSC
	}
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.PhysBytes == 0 {
		c.PhysBytes = 16 << 30
	}
	if c.GuestBytes == 0 {
		c.GuestBytes = 4 << 30
	}
	if c.DelayedTLBEntries == 0 {
		c.DelayedTLBEntries = 1024
	}
	if c.IndexCacheBytes == 0 {
		c.IndexCacheBytes = 32 << 10
	}
	if c.Sim.CPU.ROBSize == 0 {
		c.Sim = sim.DefaultConfig()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Size names one of the structure sizes a Config sets.
type Size int

// The structure sizes CheckSize validates.
const (
	LLCSize        Size = iota // Config.LLCBytes
	DelayedTLBSize             // Config.DelayedTLBEntries
	IndexCacheSize             // Config.IndexCacheBytes
)

// CheckSize reports why the simulator could not build structure s with
// size n, or nil when it can. Zero takes the default and passes. The
// constructors panic on such a geometry, so callers that take sizes from
// users (hvcsim flags, hvcd job specs) check them here first.
func CheckSize(s Size, n int) error {
	if n == 0 {
		return nil
	}
	switch s {
	case LLCSize:
		cfg := cache.DefaultHierarchyConfig(1).LLC
		cfg.SizeBytes = n
		return cfg.Validate()
	case DelayedTLBSize:
		return core.DelayedTLBConfig(n).Validate()
	case IndexCacheSize:
		return segment.IndexCacheConfig(n).Validate()
	}
	panic(fmt.Sprintf("hybridvc: unknown size %d", s))
}

// System is a ready-to-run simulated machine.
type System struct {
	cfg Config
	// Kernel is the operating system (the guest kernel when virtualized).
	Kernel *osmodel.Kernel
	// Mem is the memory system under test.
	Mem core.MemSystem
	// Hypervisor and VM are set for virtualized organizations.
	Hypervisor *virt.Hypervisor
	VM         *virt.VM

	gens []*workload.Generator
	// LastSim is the harness from the most recent Run.
	LastSim *sim.Simulator
}

// New builds a system for the configuration.
func New(cfg Config) (*System, error) {
	cfg.fillDefaults()
	s := &System{cfg: cfg}

	if cfg.Org.Virtualized() {
		s.Hypervisor = virt.NewHypervisor(cfg.PhysBytes)
		vm, err := s.Hypervisor.NewVM(cfg.GuestBytes, 4)
		if err != nil {
			return nil, err
		}
		s.VM = vm
		s.Kernel = vm.Kernel
	} else {
		s.Kernel = osmodel.NewKernel(osmodel.Config{PhysBytes: cfg.PhysBytes})
	}

	build, ok := orgTable[cfg.Org]
	if !ok {
		return nil, fmt.Errorf("hybridvc: unknown organization %q", cfg.Org)
	}
	if cfg.Cores > cache.MaxCores {
		return nil, fmt.Errorf("hybridvc: %d cores exceed the hierarchy's limit of %d", cfg.Cores, cache.MaxCores)
	}
	ms, err := build(cfg, s)
	if err != nil {
		return nil, err
	}
	s.Mem = ms
	return s, nil
}

// orgTable declaratively maps each organization to its memory system
// builder. Every organization is stage wiring over the shared pipeline
// engine (see internal/pipeline), so adding a design point is one table
// entry plus its FrontEnd/Backend hooks.
var orgTable = map[Organization]func(Config, *System) (core.MemSystem, error){
	Baseline: func(cfg Config, s *System) (core.MemSystem, error) {
		return baseline.NewConventional(baselineConfig(cfg), s.Kernel), nil
	},
	Ideal: func(cfg Config, s *System) (core.MemSystem, error) {
		return baseline.NewIdeal(baselineConfig(cfg), s.Kernel), nil
	},
	RMM: func(cfg Config, s *System) (core.MemSystem, error) {
		return baseline.NewRMM(baselineConfig(cfg), s.Kernel), nil
	},
	DirectSegment: func(cfg Config, s *System) (core.MemSystem, error) {
		return baseline.NewDirectSegment(baselineConfig(cfg), s.Kernel), nil
	},
	OVC: func(cfg Config, s *System) (core.MemSystem, error) {
		if cfg.Cores != 1 {
			return nil, fmt.Errorf("hybridvc: the OVC model is single-core")
		}
		return baseline.NewOVC(baselineConfig(cfg), s.Kernel), nil
	},
	HybridDelayedTLB: func(cfg Config, s *System) (core.MemSystem, error) {
		return core.NewHybridMMU(hybridTLBConfig(cfg, false), s.Kernel), nil
	},
	Enigma: func(cfg Config, s *System) (core.MemSystem, error) {
		return core.NewHybridMMU(hybridTLBConfig(cfg, true), s.Kernel), nil
	},
	HybridManySeg: func(cfg Config, s *System) (core.MemSystem, error) {
		return core.NewHybridMMU(hybridSegConfig(cfg, false), s.Kernel), nil
	},
	HybridManySegSC: func(cfg Config, s *System) (core.MemSystem, error) {
		return core.NewHybridMMU(hybridSegConfig(cfg, true), s.Kernel), nil
	},
	Virt2D: func(cfg Config, s *System) (core.MemSystem, error) {
		return baseline.NewVirt2D(baselineConfig(cfg), s.VM), nil
	},
	Victima: func(cfg Config, s *System) (core.MemSystem, error) {
		return baseline.NewVictima(baselineConfig(cfg), s.Kernel), nil
	},
	RLTVC: func(cfg Config, s *System) (core.MemSystem, error) {
		return core.NewRLTVC(hybridSegConfig(cfg, true), s.Kernel), nil
	},
	VirtHybrid: func(cfg Config, s *System) (core.MemSystem, error) {
		vc := core.DefaultVirtHybridConfig(cfg.Cores)
		applyLLC(&vc.Hier.LLC.SizeBytes, cfg.LLCBytes)
		vc.IndexCacheBytes = cfg.IndexCacheBytes
		return core.NewVirtHybridMMU(vc, s.VM, s.Hypervisor), nil
	},
}

// baselineConfig is the Table IV substrate with the LLC override applied.
func baselineConfig(cfg Config) baseline.Config {
	bc := baseline.DefaultConfig(cfg.Cores)
	applyLLC(&bc.Hier.LLC.SizeBytes, cfg.LLCBytes)
	return bc
}

// hybridTLBConfig configures the hybrid MMU with page-granularity delayed
// translation; bypass drops the synonym filter (the Enigma design point).
func hybridTLBConfig(cfg Config, bypass bool) core.HybridConfig {
	hc := core.DefaultHybridConfig(cfg.Cores)
	applyLLC(&hc.Hier.LLC.SizeBytes, cfg.LLCBytes)
	hc.Delayed = core.DelayedPageTLB
	hc.DelayedTLBEntries = cfg.DelayedTLBEntries
	hc.WithSegmentCache = false
	hc.FilterBypass = bypass
	return hc
}

// hybridSegConfig configures the hybrid MMU with many-segment delayed
// translation, with or without the segment cache.
func hybridSegConfig(cfg Config, sc bool) core.HybridConfig {
	hc := core.DefaultHybridConfig(cfg.Cores)
	applyLLC(&hc.Hier.LLC.SizeBytes, cfg.LLCBytes)
	hc.Delayed = core.DelayedSegments
	hc.WithSegmentCache = sc
	hc.IndexCacheBytes = cfg.IndexCacheBytes
	return hc
}

func applyLLC(dst *int, override int) {
	if override > 0 {
		*dst = override
	}
}

// AttachChecker attaches a runtime invariant checker wired for the
// system's organization: the hybrid designs expose their synonym and
// delayed TLBs, the virtualized designs resolve guest-physical addresses
// through the VM, OVC audits only its virtual L1 (split naming boundary),
// and filter-bypass (Enigma) permits shared pages under virtual names.
// The checker reconciles the pipeline counts of faults and walk steps
// with Base's counters, and its Check method may be invoked at any point
// between accesses — the fault injector does so after every injection.
func (s *System) AttachChecker() *fault.Checker {
	cfg := fault.CheckerConfig{Mem: s.Mem, Kernel: s.Kernel}
	switch m := s.Mem.(type) {
	case *core.HybridMMU:
		cfg.AllowSharedVirtual = s.cfg.Org == Enigma
		for i := 0; i < s.cfg.Cores; i++ {
			cfg.TLBs = append(cfg.TLBs, fault.NamedTLB{Name: fmt.Sprintf("syn-tlb%d", i), T: m.SynTLB(i)})
		}
		if d := m.DelayedTLB(); d != nil {
			cfg.TLBs = append(cfg.TLBs, fault.NamedTLB{Name: "delayed-tlb", T: d})
		}
	case *core.VirtHybridMMU:
		cfg.TranslateGPA = s.VM.TranslateGPA
		cfg.NestedWalks = true
	case *core.RLTVC:
		for i := 0; i < s.cfg.Cores; i++ {
			cfg.TLBs = append(cfg.TLBs, fault.NamedTLB{Name: fmt.Sprintf("rlt%d", i), T: m.RLT(i)})
		}
		cfg.PayloadCoherence = m.PayloadCoherence
	case *baseline.Victima:
		for i := 0; i < s.cfg.Cores; i++ {
			cfg.TLBs = append(cfg.TLBs,
				fault.NamedTLB{Name: fmt.Sprintf("victima-l1tlb%d", i), T: m.TLB(i).L1},
				fault.NamedTLB{Name: fmt.Sprintf("victima-l2tlb%d", i), T: m.TLB(i).L2})
		}
		cfg.PayloadCoherence = m.PayloadCoherence
	case *baseline.OVC:
		cfg.SplitL1 = true
	case *baseline.Virt2D:
		cfg.TranslateGPA = s.VM.TranslateGPA
		cfg.NestedWalks = true
	}
	return fault.NewChecker(cfg)
}

// AttachFaults attaches a deterministic fault injector as the memory
// system's pipeline.Faulter: the engine calls it once per reference, and
// its armed transient page-walk failures reach the shared walk path.
func (s *System) AttachFaults(cfg fault.Config) *fault.Injector {
	inj := fault.NewInjector(cfg, s.Kernel)
	s.Mem.BaseState().SetFaulter(inj)
	return inj
}

// InjectFaults attaches a checker-audited fault injector: every injected
// fault is followed by a full invariant check, and the first violation is
// retained on both the injector and the checker.
func (s *System) InjectFaults(cfg fault.Config) (*fault.Injector, *fault.Checker) {
	ch := s.AttachChecker()
	inj := s.AttachFaults(cfg)
	inj.SetChecker(ch)
	return inj, ch
}

// LoadWorkload instantiates the named workload's processes in the system.
func (s *System) LoadWorkload(name string) error {
	spec, err := workload.Get(name)
	if err != nil {
		return err
	}
	return s.LoadSpec(spec)
}

// LoadSpec instantiates a custom workload spec.
func (s *System) LoadSpec(spec workload.Spec) error {
	gens, err := workload.NewGroup(spec, s.Kernel, s.cfg.Seed)
	if err != nil {
		return err
	}
	s.gens = append(s.gens, gens...)
	if ds, ok := s.Mem.(*baseline.DirectSegment); ok {
		for _, g := range gens {
			ds.AssignSegment(g.Proc)
		}
	}
	return nil
}

// Generators returns the loaded workload generators.
func (s *System) Generators() []*workload.Generator { return s.gens }

// Run simulates n instructions per core and returns the report.
//
// Repeated calls CONTINUE the loaded workloads: generators keep their
// stream position (and the memory system keeps its warmed caches, TLBs
// and page tables), while a fresh sim.Simulator — fresh timing cores and
// cycle counts — is built for each call. Two back-to-back Run(n) calls
// therefore measure a cold window followed by a warm window of the same
// stream, not the same window twice; the second report's cycle count is
// not comparable to a fresh system's. For independent, reproducible
// measurements build a new System per run (the experiment registry's
// sweep cells do exactly that).
func (s *System) Run(n uint64) (sim.Report, error) {
	return s.RunContext(context.Background(), n)
}

// RunContext is Run under a context: cancelling ctx stops the simulation
// at its next chunk boundary, and the partial report comes back with an
// error wrapping context.Cause(ctx) (see sim.Simulator.RunContext).
func (s *System) RunContext(ctx context.Context, n uint64) (sim.Report, error) {
	if len(s.gens) == 0 {
		return sim.Report{}, fmt.Errorf("hybridvc: no workload loaded")
	}
	s.LastSim = sim.New(s.cfg.Sim, s.Mem, s.gens)
	return s.LastSim.RunContext(ctx, n)
}
