package workload

import (
	"math"
	"testing"

	"hybridvc/internal/addr"
	"hybridvc/internal/osmodel"
)

func kernel() *osmodel.Kernel {
	return osmodel.NewKernel(osmodel.Config{PhysBytes: 16 << 30})
}

func TestAllSpecsInstantiate(t *testing.T) {
	for name, spec := range Specs {
		k := kernel()
		gens, err := NewGroup(spec, k, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := spec.Procs
		if want <= 0 {
			want = 1
		}
		if len(gens) != want {
			t.Errorf("%s: %d generators, want %d", name, len(gens), want)
		}
		// Generate some instructions; all memory VAs must be mapped.
		for _, g := range gens {
			for i := 0; i < 2000; i++ {
				in := g.Next()
				if !in.IsMem {
					continue
				}
				if _, ok := g.Proc.PT.Lookup(in.VA.PageAligned()); !ok {
					t.Fatalf("%s: generated unmapped VA %#x", name, uint64(in.VA))
				}
			}
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nonexistent"); err == nil {
		t.Error("unknown workload accepted")
	}
	if s, err := Get("gups"); err != nil || s.Name != "gups" {
		t.Error("known workload rejected")
	}
}

func TestMemRatioApproximatelyRespected(t *testing.T) {
	k := kernel()
	g, err := New(Specs["gups"], k, 2)
	if err != nil {
		t.Fatal(err)
	}
	mem := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if g.Next().IsMem {
			mem++
		}
	}
	got := float64(mem) / n
	if math.Abs(got-g.Spec.MemRatio) > 0.02 {
		t.Errorf("mem ratio = %.3f, want ~%.3f", got, g.Spec.MemRatio)
	}
	if g.Emitted() != n {
		t.Errorf("emitted = %d", g.Emitted())
	}
}

func TestSharedAccessFraction(t *testing.T) {
	k := kernel()
	gens, err := NewGroup(Specs["postgres"], k, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := gens[0]
	shared, mem := 0, 0
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.IsMem {
			mem++
			if in.Shared {
				shared++
			}
		}
	}
	got := float64(shared) / float64(mem)
	if math.Abs(got-0.16) > 0.02 {
		t.Errorf("shared access fraction = %.3f, want ~0.16", got)
	}
	// The OS-side accounting must agree.
	if r := g.Proc.SharedAccessRatio(); math.Abs(r-got) > 0.01 {
		t.Errorf("OS-side shared ratio %.3f disagrees with stream %.3f", r, got)
	}
	// And the shared pages must be synonym-marked.
	if !g.Proc.Filter.IsCandidate(gens[0].sharedStart) {
		t.Error("shared region not in synonym filter")
	}
}

func TestSegmentCountsMatchTableIII(t *testing.T) {
	// Region counts translate into live segment counts (plus one code
	// segment per process) — the Table III reproduction hinges on this.
	for _, name := range []string{"stream", "mcf", "tigr"} {
		k := kernel()
		spec := Specs[name]
		if _, err := NewGroup(spec, k, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := len(spec.Regions) + 1 // + code region
		if got := k.MaxSegments(); got < want || got > want+4 {
			t.Errorf("%s: %d segments, want ~%d", name, got, want)
		}
	}
}

func TestTouchFracBoundsFootprint(t *testing.T) {
	k := kernel()
	g, err := New(Specs["gemsFDTD"], k, 4) // TouchFrac 0.28
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200000; i++ {
		g.Next()
	}
	// A sampled window touches only part of the working set, so
	// utilization must stay below the touch fraction (plus slack for the
	// fully touched code region).
	u := g.Proc.Utilization()
	if u > 0.35 {
		t.Errorf("utilization %.3f far above touch fraction 0.28", u)
	}
	// PrewarmTouch models the full run: utilization converges to the
	// touch fraction.
	g.PrewarmTouch()
	u = g.Proc.Utilization()
	if math.Abs(u-0.28) > 0.03 {
		t.Errorf("prewarmed utilization %.3f, want ~0.28", u)
	}
}

func TestStreamPatternIsSequential(t *testing.T) {
	k := kernel()
	g, err := New(Specs["stream"], k, 5)
	if err != nil {
		t.Fatal(err)
	}
	var prev addr.VA
	increasing, mem := 0, 0
	for i := 0; i < 10000; i++ {
		in := g.Next()
		if !in.IsMem {
			continue
		}
		mem++
		if in.VA > prev {
			increasing++
		}
		prev = in.VA
	}
	if float64(increasing)/float64(mem) < 0.95 {
		t.Errorf("stream pattern not sequential: %d/%d increasing", increasing, mem)
	}
}

func TestChasePatternDependence(t *testing.T) {
	k := kernel()
	g, err := New(Specs["mcf"], k, 6)
	if err != nil {
		t.Fatal(err)
	}
	dep, loads := 0, 0
	for i := 0; i < 20000; i++ {
		in := g.Next()
		if in.IsMem && !in.IsStore {
			loads++
			if in.DependsOnPrev {
				dep++
			}
		}
	}
	if float64(dep)/float64(loads) < 0.9 {
		t.Errorf("chase workload loads not dependent: %d/%d", dep, loads)
	}
}

func TestZipfConcentratesAccesses(t *testing.T) {
	k := kernel()
	g, err := New(Specs["omnetpp"], k, 7) // HotFrac 0.1
	if err != nil {
		t.Fatal(err)
	}
	hot := g.HotPages()
	if len(hot) == 0 {
		t.Fatal("no hot pages for a Zipf workload")
	}
	inHot, mem := 0, 0
	distinct := map[uint64]bool{}
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.IsMem && !in.Shared {
			mem++
			distinct[in.VA.Page()] = true
			if hot[in.VA.Page()] {
				inHot++
			}
		}
	}
	// ~90% of accesses must land in the hot region.
	if frac := float64(inHot) / float64(mem); frac < 0.85 {
		t.Errorf("hot region holds only %.2f of accesses", frac)
	}
	if uint64(len(distinct)) > g.PageWorkingSet() {
		t.Errorf("touched %d pages > working set %d", len(distinct), g.PageWorkingSet())
	}
}

func TestUniformSpreadsAccesses(t *testing.T) {
	k := kernel()
	g, err := New(Specs["gups"], k, 8)
	if err != nil {
		t.Fatal(err)
	}
	pages := map[uint64]bool{}
	mem := 0
	for i := 0; i < 50000; i++ {
		in := g.Next()
		if in.IsMem {
			pages[in.VA.Page()] = true
			mem++
		}
	}
	// With a 1 GiB working set and ~25k accesses, nearly every access
	// lands on a fresh page.
	if float64(len(pages))/float64(mem) < 0.9 {
		t.Errorf("gups touched only %d distinct pages over %d accesses", len(pages), mem)
	}
}

func TestPhaseRotationMovesHotRegion(t *testing.T) {
	k := kernel()
	spec := Specs["omnetpp"]
	spec.PhaseInsns = 20000
	g, err := New(spec, k, 12)
	if err != nil {
		t.Fatal(err)
	}
	hot0 := g.HotPages()
	// Run past one phase boundary.
	for i := 0; i < 25000; i++ {
		g.Next()
	}
	if g.Phases != 1 {
		t.Fatalf("phases = %d, want 1", g.Phases)
	}
	hot1 := g.HotPages()
	overlap := 0
	for p := range hot1 {
		if hot0[p] {
			overlap++
		}
	}
	// The rotated hot region must be (almost) disjoint from the old one.
	if float64(overlap)/float64(len(hot1)) > 0.1 {
		t.Errorf("hot regions overlap %d/%d after a phase change", overlap, len(hot1))
	}
	// Accesses concentrate on the new hot region.
	inHot, mem := 0, 0
	for i := 0; i < 15000; i++ {
		in := g.Next()
		if in.IsMem && !in.Shared {
			mem++
			if hot1[in.VA.Page()] {
				inHot++
			}
		}
	}
	if frac := float64(inHot) / float64(mem); frac < 0.8 {
		t.Errorf("post-phase hot fraction %.2f", frac)
	}
}

func TestDeterministicStreams(t *testing.T) {
	k1, k2 := kernel(), kernel()
	g1, _ := New(Specs["mcf"], k1, 42)
	g2, _ := New(Specs["mcf"], k2, 42)
	for i := 0; i < 10000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestCodeRegionMapped(t *testing.T) {
	k := kernel()
	g, _ := New(Specs["stream"], k, 9)
	if g.CodeLen == 0 {
		t.Fatal("no code region")
	}
	for off := uint64(0); off < g.CodeLen; off += addr.PageSize {
		pte, ok := g.Proc.PT.Lookup(g.CodeStart + addr.VA(off))
		if !ok || pte.Perm != addr.PermExec {
			t.Fatalf("code page %#x unmapped or wrong perm", off)
		}
	}
}

func TestBranchMispredictsEmitted(t *testing.T) {
	k := kernel()
	g, err := New(Specs["stream"], k, 10)
	if err != nil {
		t.Fatal(err)
	}
	miss := 0
	const n = 200000
	for i := 0; i < n; i++ {
		in := g.Next()
		if in.Mispredict {
			if in.IsMem {
				t.Fatal("memory op marked mispredict")
			}
			miss++
		}
	}
	// Default rates: 15% branches x 3% mispredict over non-mem insns
	// (~50% of the stream) => ~0.22% of instructions.
	rate := float64(miss) / n
	if rate < 0.0005 || rate > 0.006 {
		t.Errorf("mispredict rate %.4f outside plausible band", rate)
	}
}
