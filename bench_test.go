// Benchmark harness: one benchmark per paper table/figure (regenerating
// the same rows/series via the experiments package) plus microbenchmarks
// of the core hardware structures. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks run at Quick scale; use `go run ./cmd/tablegen
// -full` for paper-length sweeps.
package hybridvc_test

import (
	"math/rand"
	"testing"

	"hybridvc"
	"hybridvc/experiments"
	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/mem"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/segment"
	"hybridvc/internal/synfilter"
	"hybridvc/internal/tlb"
	"hybridvc/internal/workload"
)

// sinkTable prevents dead-code elimination of experiment results.
var sinkTable interface{}

// --- one benchmark per table/figure ---

func BenchmarkTable1SharedMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := experiments.TableI(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable2SynonymFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := experiments.TableII(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable3Segments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := experiments.TableIII(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure4DelayedTLBScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := experiments.Figure4(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure7aIndexCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := experiments.Figure7a(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure7bIndexCacheWorstCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := experiments.Figure7b(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure9NativePerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := experiments.Figure9(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure10VirtualizedPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := experiments.Figure10(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure11TranslationEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := experiments.Figure11(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkSegmentWalkLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.SegmentWalkLatency(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkAblationFilterDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationFilterDesign(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkAblationSegmentCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationSegmentCache(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkMulticoreMixes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := experiments.Multicore(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkAblationHugePages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationHugePages(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// --- microbenchmarks of the hardware structures ---

func BenchmarkSynonymFilterLookup(b *testing.B) {
	f := synfilter.New()
	f.MarkSynonymRange(0x7000_0000_0000, 1<<20)
	rng := rand.New(rand.NewSource(1))
	vas := make([]addr.VA, 4096)
	for i := range vas {
		vas[i] = addr.VA(rng.Uint64() % (1 << addr.VABits))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.IsCandidate(vas[i%len(vas)])
	}
}

func BenchmarkTLBLookup(b *testing.B) {
	t := tlb.New(tlb.Config{Name: "b", Entries: 1024, Ways: 8, Latency: 7})
	asid := addr.MakeASID(0, 1)
	for vpn := uint64(0); vpn < 1024; vpn++ {
		t.Insert(tlb.Entry{ASID: asid, VPN: vpn, PFN: vpn})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(asid, uint64(i)%2048)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.Config{Name: "b", SizeBytes: 2 << 20, Ways: 16, HitLatency: 27})
	asid := addr.MakeASID(0, 1)
	names := make([]addr.Name, 8192)
	for i := range names {
		names[i] = addr.VirtName(asid, addr.VA(i*64))
		c.Fill(names[i], cache.Exclusive, addr.PermRW)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(names[i%len(names)])
	}
}

func BenchmarkIndexTreeLookup(b *testing.B) {
	alloc := mem.NewAllocator(1 << 30)
	mgr := segment.NewManager(segment.NewNodeArena(alloc))
	asid := addr.MakeASID(0, 1)
	entries := make([]segment.TreeEntry, 2048)
	for i := range entries {
		entries[i] = segment.TreeEntry{
			Key:   segment.MakeKey(asid, addr.VA(i)<<21),
			Value: segment.ID(i),
		}
	}
	mgr.Tree.Build(entries)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.Tree.Lookup(asid, addr.VA(rng.Uint64()%(2048<<21)))
	}
}

func BenchmarkSegmentTranslate(b *testing.B) {
	alloc := mem.NewAllocator(1 << 32)
	mgr := segment.NewManager(segment.NewNodeArena(alloc))
	ic := segment.NewIndexCache(32 << 10)
	mgr.OnRebuild = ic.Flush
	asid := addr.MakeASID(0, 1)
	for i := 0; i < 512; i++ {
		pa, _ := alloc.AllocContiguous(256)
		if _, err := mgr.Allocate(asid, addr.VA(i)<<21, 256*addr.PageSize, pa, addr.PermRW); err != nil {
			b.Fatal(err)
		}
	}
	tr := segment.NewTranslator(segment.DefaultTranslatorConfig(),
		segment.NewSegCache(segment.SegCacheEntries), ic, mgr)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Translate(asid, addr.VA(rng.Uint64()%(512<<21)))
	}
}

func BenchmarkPageWalk(b *testing.B) {
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
	p, err := k.NewProcess()
	if err != nil {
		b.Fatal(err)
	}
	va, err := p.Mmap(64<<20, addr.PermRW, osmodel.MmapOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PT.WalkPath(va + addr.VA(uint64(i)%(64<<20)))
	}
}

func BenchmarkHybridMMUAccess(b *testing.B) {
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 16 << 30})
	m := core.NewHybridMMU(core.DefaultHybridConfig(1), k)
	g, err := workload.New(workload.Specs["gups"], k, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := g.Next()
		if !in.IsMem {
			continue
		}
		kind := cache.Read
		if in.IsStore {
			kind = cache.Write
		}
		m.Access(core.Request{Kind: kind, VA: in.VA, Proc: g.Proc})
	}
}

func BenchmarkEndToEndSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := hybridvc.New(hybridvc.Config{Org: hybridvc.HybridManySegSC})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.LoadWorkload("omnetpp"); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(50_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSerialParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationSerialParallel(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}
