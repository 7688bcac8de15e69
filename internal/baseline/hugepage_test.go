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

func TestConventionalHugeTLBCoversLargeFootprint(t *testing.T) {
	// A 64 MiB random footprint thrashes 4 KiB TLBs (16k pages vs 1088
	// entries) but fits in 32 x 2 MiB huge entries.
	run := func(huge bool) (*Conventional, uint64) {
		k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
		c := NewConventional(DefaultConfig(1), k)
		p, _ := k.NewProcess()
		va, err := p.Mmap(64<<20, addr.PermRW, osmodel.MmapOpts{HugePages: huge})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 20000; i++ {
			v := va + addr.VA(rng.Uint64()%(64<<20))
			if res := c.Access(core.Request{Kind: cache.Read, VA: v, Proc: p}); res.Fault {
				t.Fatal("fault")
			}
		}
		return c, c.Counts.Misses(pipeline.TLBL2)
	}
	c4k, walks4k := run(false)
	chuge, walksHuge := run(true)
	if walksHuge*10 > walks4k {
		t.Errorf("huge pages: %d walks vs %d with 4K; no reach benefit", walksHuge, walks4k)
	}
	if chuge.Counts.TLBHits[pipeline.TLBHuge] == 0 {
		t.Error("no huge TLB hits")
	}
	if c4k.Counts.TLBHits[pipeline.TLBHuge] != 0 {
		t.Error("huge TLB hits without huge pages")
	}
}

func TestHugeMappingTranslationCorrect(t *testing.T) {
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
	c := NewConventional(DefaultConfig(1), k)
	p, _ := k.NewProcess()
	va, err := p.Mmap(8<<20, addr.PermRW, osmodel.MmapOpts{HugePages: true})
	if err != nil {
		t.Fatal(err)
	}
	// Mappings are 2 MiB aligned and huge.
	pte, ok := p.PT.Lookup(va)
	if !ok || !pte.Huge {
		t.Fatalf("pte = %+v ok=%v", pte, ok)
	}
	if uint64(va)%addr.HugePageSize != 0 {
		t.Error("region not 2 MiB aligned")
	}
	// Cached line lands at the composed PA.
	off := addr.VA(3<<20 + 0x1240)
	c.Access(core.Request{Kind: cache.Read, VA: va + off, Proc: p})
	pa, _ := p.PT.Translate(va + off)
	if c.Hierarchy().LLC().Probe(addr.PhysName(pa)) == nil {
		t.Error("line not cached at translated PA")
	}
	// The PA really is the segment-contiguous address.
	seg, _ := k.SegMgr.LookupSoft(p.ASID, va+off)
	if seg.Translate(va+off) != pa {
		t.Error("segment and huge PT disagree")
	}
}

func TestHugePagesRejectDemand(t *testing.T) {
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 28})
	p, _ := k.NewProcess()
	if _, err := p.Mmap(4<<20, addr.PermRW, osmodel.MmapOpts{HugePages: true, Demand: true}); err == nil {
		t.Error("huge demand mapping accepted")
	}
}

func TestHybridUnaffectedByHugePages(t *testing.T) {
	// The hybrid design translates by segment after LLC misses, so page
	// size is irrelevant to it — but it must still work correctly when
	// the OS maps huge pages (e.g. the synonym TLB fractures them).
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
	m := core.NewHybridMMU(core.DefaultHybridConfig(1), k)
	p, _ := k.NewProcess()
	va, err := p.Mmap(8<<20, addr.PermRW, osmodel.MmapOpts{HugePages: true})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Access(core.Request{Kind: cache.Write, VA: va + 0x5000, Proc: p})
	if res.Fault {
		t.Fatal("fault")
	}
	if m.Hier.LLC().Probe(addr.VirtName(p.ASID, va+0x5000)) == nil {
		t.Error("huge-backed page not cached virtually")
	}
}
