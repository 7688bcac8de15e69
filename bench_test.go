// Whole-system benchmarks of the hybrid MMU's scalar access path and of
// one end-to-end simulation. Run with:
//
//	go test -run=NONE -bench=. -benchmem .
//
// Per-figure timings come from `go run ./cmd/tablegen -exp <name>`, which
// prints each experiment's wall time, and the structure micro-loops
// (synonym filter, TLB, cache, index tree, segment translation, page walk)
// from the repository benchmark in bench/ (see bench/README.md).
package hybridvc_test

import (
	"testing"

	"hybridvc"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/workload"
)

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
