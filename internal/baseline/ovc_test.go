package baseline

import (
	"math/rand"
	"testing"

	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/osmodel"
)

func setupOVC(t *testing.T) (*OVC, *osmodel.Kernel, *osmodel.Process) {
	t.Helper()
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
	o := NewOVC(smallConfig(1), k)
	p, err := k.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	return o, k, p
}

func TestOVCVirtualL1HitNeedsNoTranslation(t *testing.T) {
	o, _, p := setupOVC(t)
	va, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	o.Access(core.Request{Kind: cache.Read, VA: va, Proc: p})
	tlbBefore := o.Energy().Accesses[0] // L1TLB
	res := o.Access(core.Request{Kind: cache.Read, VA: va, Proc: p})
	if res.HitLevel != 1 {
		t.Fatalf("warm access: %+v", res)
	}
	if o.Energy().Accesses[0] != tlbBefore {
		t.Error("virtual L1 hit paid TLB energy")
	}
	if o.L1VirtualHits.Value() != 1 {
		t.Errorf("virtual hits = %d", o.L1VirtualHits.Value())
	}
	// The L1 caches the virtual name; outer levels are physical.
	if o.Hierarchy().L1D(0).Probe(addr.VirtName(p.ASID, va)) == nil {
		t.Error("L1 line not virtual")
	}
	pa, _ := p.PT.Translate(va)
	if o.Hierarchy().LLC().Probe(addr.PhysName(pa)) == nil {
		t.Error("LLC line not physical")
	}
	if o.Hierarchy().LLC().Probe(addr.VirtName(p.ASID, va)) != nil {
		t.Error("virtual name leaked past the L1")
	}
}

func TestOVCL1MissStillTranslates(t *testing.T) {
	// OVC's limitation vs full-hierarchy virtual caching: every L1 miss
	// pays translation even when the data sits in the L2/LLC.
	o, _, p := setupOVC(t)
	va, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	// Touch enough lines to evict va from the tiny L1 but stay in LLC.
	o.Access(core.Request{Kind: cache.Read, VA: va, Proc: p})
	for i := uint64(1); i <= 16; i++ {
		o.Access(core.Request{Kind: cache.Read, VA: va + addr.VA(i*0x100), Proc: p})
	}
	x := o.L1MissTranslations.Value()
	o.Access(core.Request{Kind: cache.Read, VA: va, Proc: p})
	if o.L1MissTranslations.Value() != x+1 {
		t.Error("L1 miss did not translate")
	}
}

func TestOVCSynonymsArePhysicalInL1(t *testing.T) {
	o, k, p := setupOVC(t)
	vas, err := k.ShareAnonymous([]*osmodel.Process{p}, 8*addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	o.Access(core.Request{Kind: cache.Write, VA: vas[0], Proc: p})
	pa, _ := p.PT.Translate(vas[0])
	if o.Hierarchy().L1D(0).Probe(addr.PhysName(pa)) == nil {
		t.Error("synonym line not physical in L1")
	}
	if o.Hierarchy().L1D(0).Probe(addr.VirtName(p.ASID, vas[0])) != nil {
		t.Error("synonym line cached virtually")
	}
}

func TestOVCEnergyBetweenBaselineAndHybrid(t *testing.T) {
	// On a cache-friendly workload: baseline probes the TLB per access,
	// OVC only on L1 misses — so OVC must save TLB energy vs baseline.
	rng := rand.New(rand.NewSource(6))
	drive := func(ms core.MemSystem, p *osmodel.Process, va addr.VA) {
		for i := 0; i < 20000; i++ {
			// Hot 8 KiB working set: high L1 hit rate.
			off := addr.VA(rng.Uint64() % (8 << 10)).LineAligned()
			ms.Access(core.Request{Kind: cache.Read, VA: va + off, Proc: p})
		}
	}
	ko := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
	ovc := NewOVC(DefaultConfig(1), ko) // real 32 KiB L1 holds the hot set
	po, _ := ko.NewProcess()
	vao, _ := po.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	drive(ovc, po, vao)

	kb := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
	conv := NewConventional(DefaultConfig(1), kb)
	pb, _ := kb.NewProcess()
	vab, _ := pb.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	rng = rand.New(rand.NewSource(6))
	drive(conv, pb, vab)

	if ovc.Energy().Dynamic() >= conv.Energy().Dynamic()/2 {
		t.Errorf("OVC dynamic %.0f not well below baseline %.0f",
			ovc.Energy().Dynamic(), conv.Energy().Dynamic())
	}
}

func TestOVCDemandFaultAndCoW(t *testing.T) {
	o, k, p := setupOVC(t)
	va, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{Demand: true})
	res := o.Access(core.Request{Kind: cache.Write, VA: va, Proc: p})
	if !res.Fault {
		t.Fatal("no fault on demand page")
	}
	if res2 := o.Access(core.Request{Kind: cache.Write, VA: va, Proc: p}); res2.Fault {
		t.Error("retry faulted")
	}
	// The demand fault re-ran its reference once, and that re-run entered
	// the pipeline like the two references the test issued.
	if c := o.BaseState().Counts; c.Retries != 1 || c.RouteTotal != 2+c.Retries {
		t.Errorf("retries %d, routes %d; want 1 and 3", c.Retries, c.RouteTotal)
	}
	_ = k
}

func TestOVCMultiCorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("multi-core OVC did not panic")
		}
	}()
	NewOVC(smallConfig(2), osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 26}))
}
