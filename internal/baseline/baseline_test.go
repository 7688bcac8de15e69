package baseline

import (
	"math/rand"
	"testing"

	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/pipeline"
)

func smallConfig(cores int) Config {
	cfg := DefaultConfig(cores)
	cfg.Hier.L1I = cache.Config{Name: "L1I", SizeBytes: 1 << 10, Ways: 2, HitLatency: 2}
	cfg.Hier.L1D = cache.Config{Name: "L1D", SizeBytes: 1 << 10, Ways: 2, HitLatency: 4}
	cfg.Hier.L2 = cache.Config{Name: "L2", SizeBytes: 4 << 10, Ways: 4, HitLatency: 6}
	cfg.Hier.LLC = cache.Config{Name: "LLC", SizeBytes: 16 << 10, Ways: 8, HitLatency: 27}
	return cfg
}

func setup(t *testing.T) (*osmodel.Kernel, *osmodel.Process) {
	t.Helper()
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
	p, err := k.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	return k, p
}

func TestConventionalTranslatesAndCachesPhysically(t *testing.T) {
	k, p := setup(t)
	c := NewConventional(smallConfig(1), k)
	va, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	res := c.Access(core.Request{Kind: cache.Read, VA: va, Proc: p})
	if res.Fault {
		t.Fatal("fault")
	}
	pa, _ := p.PT.Translate(va)
	if c.Hierarchy().LLC().Probe(addr.PhysName(pa)) == nil {
		t.Error("data not cached physically")
	}
	if walks := c.Counts.Misses(pipeline.TLBL2); walks != 1 {
		t.Errorf("walks = %d", walks)
	}
	// Warm access: TLB L1 hit adds no translation latency.
	warm := c.Access(core.Request{Kind: cache.Read, VA: va, Proc: p})
	if warm.Latency != 4 {
		t.Errorf("warm latency = %d, want 4 (L1 cache)", warm.Latency)
	}
	// Every access pays L1 TLB energy.
	if c.Energy().Accesses[0] != 2 {
		t.Errorf("L1 TLB accesses = %d", c.Energy().Accesses[0])
	}
}

func TestConventionalTLBMissLatency(t *testing.T) {
	k, p := setup(t)
	c := NewConventional(smallConfig(1), k)
	va, _ := p.Mmap(64<<20, addr.PermRW, osmodel.MmapOpts{})
	// Touch > 1024 distinct pages to overflow the L2 TLB.
	for i := uint64(0); i < 2048; i++ {
		c.Access(core.Request{Kind: cache.Read, VA: va + addr.VA(i*addr.PageSize), Proc: p})
	}
	walks0 := c.Counts.Misses(pipeline.TLBL2)
	if walks0 < 2000 {
		t.Errorf("walks = %d, want ~2048 (cold pages)", walks0)
	}
	// Re-touch the early pages: they are long evicted from both TLBs.
	c.Access(core.Request{Kind: cache.Read, VA: va, Proc: p})
	if c.Counts.Misses(pipeline.TLBL2) != walks0+1 {
		t.Error("expected a TLB miss walk on an evicted page")
	}
}

func TestConventionalDemandFault(t *testing.T) {
	k, p := setup(t)
	c := NewConventional(smallConfig(1), k)
	va, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{Demand: true})
	res := c.Access(core.Request{Kind: cache.Write, VA: va, Proc: p})
	if !res.Fault {
		t.Fatal("no fault on demand page")
	}
	if k.PageFaults.Value() != 1 {
		t.Error("fault not recorded")
	}
	if res2 := c.Access(core.Request{Kind: cache.Write, VA: va, Proc: p}); res2.Fault {
		t.Error("second access faulted")
	}
}

func TestIdealHasNoTranslationCost(t *testing.T) {
	k, p := setup(t)
	i := NewIdeal(smallConfig(1), k)
	va, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	i.Access(core.Request{Kind: cache.Read, VA: va, Proc: p})
	warm := i.Access(core.Request{Kind: cache.Read, VA: va, Proc: p})
	if warm.Latency != 4 {
		t.Errorf("warm latency = %d", warm.Latency)
	}
	if i.Energy().Dynamic() != 0 {
		t.Error("ideal charged translation energy")
	}
	if i.Name() != "ideal" {
		t.Error("name")
	}
}

func TestIdealFasterThanConventionalOnTLBThrashing(t *testing.T) {
	run := func(mk func(Config, *osmodel.Kernel) core.MemSystem) uint64 {
		k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
		p, _ := k.NewProcess()
		m := mk(smallConfig(1), k)
		va, _ := p.Mmap(128<<20, addr.PermRW, osmodel.MmapOpts{})
		rng := rand.New(rand.NewSource(3))
		var total uint64
		for i := 0; i < 20000; i++ {
			v := va + addr.VA(rng.Uint64()%(128<<20))
			total += m.Access(core.Request{Kind: cache.Read, VA: v, Proc: p}).Latency
		}
		return total
	}
	conv := run(func(c Config, k *osmodel.Kernel) core.MemSystem { return NewConventional(c, k) })
	ideal := run(func(c Config, k *osmodel.Kernel) core.MemSystem { return NewIdeal(c, k) })
	if ideal >= conv {
		t.Errorf("ideal (%d) not faster than conventional (%d)", ideal, conv)
	}
	// On a TLB-thrashing workload the gap must be substantial.
	if float64(conv-ideal)/float64(conv) < 0.1 {
		t.Errorf("translation overhead only %.1f%%", 100*float64(conv-ideal)/float64(conv))
	}
}

func TestRangeTLBLRU(t *testing.T) {
	k, p := setup(t)
	// Allocate 3 regions => 3 segments.
	var segs []addr.VA
	for i := 0; i < 3; i++ {
		va, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
		segs = append(segs, va)
	}
	all := k.SegMgr.Segments(p.ASID)
	rt := NewRangeTLB(2)
	rt.Insert(all[0])
	rt.Insert(all[1])
	if _, ok := rt.Lookup(p.ASID, all[0].Base); !ok {
		t.Fatal("inserted range missing")
	}
	rt.Insert(all[2]) // evicts all[1] (LRU)
	if _, ok := rt.Lookup(p.ASID, all[1].Base); ok {
		t.Error("LRU range not evicted")
	}
	if _, ok := rt.Lookup(p.ASID, all[0].Base); !ok {
		t.Error("MRU range evicted")
	}
}

func TestRMMThrashesBeyond32Segments(t *testing.T) {
	// The Table III effect: workloads with many segments overwhelm RMM's
	// 32-entry range TLB; workloads with few do not.
	runMPKI := func(nRegions int) float64 {
		k := osmodel.NewKernel(osmodel.Config{PhysBytes: 4 << 30})
		p, _ := k.NewProcess()
		r := NewRMM(smallConfig(1), k)
		var bases []addr.VA
		for i := 0; i < nRegions; i++ {
			va, err := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
			if err != nil {
				t.Fatal(err)
			}
			bases = append(bases, va)
		}
		rng := rand.New(rand.NewSource(7))
		const insns = 40000
		for i := 0; i < insns; i++ {
			va := bases[rng.Intn(len(bases))] + addr.VA(rng.Uint64()%(1<<20))
			r.Access(core.Request{Kind: cache.Read, VA: va, Proc: p})
		}
		return 1000 * float64(r.Counts.Misses(pipeline.TLBRange)) / insns
	}
	few := runMPKI(8)
	many := runMPKI(200)
	if many < 10*few+1 {
		t.Errorf("RMM MPKI: few=%f many=%f; no thrashing effect", few, many)
	}
}

func TestDirectSegmentFreeTranslation(t *testing.T) {
	k, p := setup(t)
	d := NewDirectSegment(smallConfig(1), k)
	big, _ := p.Mmap(64<<20, addr.PermRW, osmodel.MmapOpts{})
	small, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	d.AssignSegment(p)

	// In-segment access: no TLB energy beyond what setup used.
	l1Before := d.Energy().Accesses[0]
	res := d.Access(core.Request{Kind: cache.Read, VA: big + 0x1000, Proc: p})
	if res.Fault {
		t.Fatal("fault in segment")
	}
	if d.Energy().Accesses[0] != l1Before {
		t.Error("direct segment access paid TLB energy")
	}
	if d.InSegment.Value() != 1 {
		t.Errorf("in-segment accesses = %d", d.InSegment.Value())
	}
	// Outside the segment, the conventional path runs.
	d.Access(core.Request{Kind: cache.Read, VA: small, Proc: p})
	if d.Energy().Accesses[0] != l1Before+1 {
		t.Error("out-of-segment access skipped the TLB")
	}
	if d.Name() != "direct-segment" {
		t.Error("name")
	}
}

func TestShootdownSinkIntegration(t *testing.T) {
	k, p := setup(t)
	c := NewConventional(smallConfig(1), k)
	va, _ := p.Mmap(addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
	c.Access(core.Request{Kind: cache.Read, VA: va, Proc: p})
	if _, ok := c.TLB(0).L1.Probe(p.ASID, va.Page()); !ok {
		t.Fatal("TLB entry missing")
	}
	// A MarkShared transition shoots down the TLB entry.
	if err := k.MarkShared(p, va, addr.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.TLB(0).L1.Probe(p.ASID, va.Page()); ok {
		t.Error("TLB entry survived shootdown")
	}
	if c.TLBShoots.Value() == 0 {
		t.Error("shootdowns not counted")
	}
}
