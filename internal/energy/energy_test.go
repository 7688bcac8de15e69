package energy

import (
	"strings"
	"testing"
)

func TestDynamicEnergyAccumulates(t *testing.T) {
	a := NewAccumulator(DefaultModel())
	a.Access(L1TLB, 1000)
	a.Access(L2TLB, 10)
	want := 1000*4.0 + 10*18.0
	if got := a.Dynamic(); got != want {
		t.Errorf("dynamic = %f, want %f", got, want)
	}
}

func TestStaticOnlyForPresentComponents(t *testing.T) {
	m := DefaultModel()
	a := NewAccumulator(m, L1TLB, L2TLB)
	base := a.StaticOver(1000)
	if base != (m.Static[L1TLB]+m.Static[L2TLB])*1000 {
		t.Errorf("static = %f", base)
	}
	// Accessing a new component makes it present.
	a.Access(IndexCache, 1)
	if a.StaticOver(1000) <= base {
		t.Error("accessed component does not leak")
	}
}

func TestFilterCheaperThanTLB(t *testing.T) {
	// The design premise: replacing a per-access TLB lookup with a
	// per-access filter probe must save energy.
	m := DefaultModel()
	if m.PerAccess[SynonymFilter] >= m.PerAccess[L1TLB]/2 {
		t.Error("synonym filter not substantially cheaper than L1 TLB")
	}
}

func TestHybridSavesTranslationEnergy(t *testing.T) {
	// Emulate 1M references: baseline pays L1 TLB each + 5% L2 TLB;
	// hybrid pays filter each + 1% synonym TLB + 2% delayed structures.
	const refs = 1_000_000
	base := NewAccumulator(DefaultModel())
	base.Access(L1TLB, refs)
	base.Access(L2TLB, refs/20)
	base.Access(PageWalk, refs/500)

	hyb := NewAccumulator(DefaultModel())
	hyb.Access(SynonymFilter, refs)
	hyb.Access(SynonymTLB, refs/100)
	hyb.Access(IndexCache, refs/50)
	hyb.Access(SegmentTable, refs/50)
	hyb.Access(SegmentCache, refs/50)

	const cycles = 2_000_000
	total := func(a *Accumulator) float64 { return a.Dynamic() + a.StaticOver(cycles) }
	saving := 1 - total(hyb)/total(base)
	if saving < 0.5 {
		t.Errorf("hybrid saves only %.0f%% translation energy", 100*saving)
	}
}

func TestDelayedTLBEnergyScales(t *testing.T) {
	if DelayedTLBEnergy(1024) != 18.0 {
		t.Errorf("1K energy = %f", DelayedTLBEnergy(1024))
	}
	prev := 0.0
	for _, entries := range []int{1024, 2048, 4096, 8192, 16384, 32768} {
		e := DelayedTLBEnergy(entries)
		if e <= prev {
			t.Errorf("energy for %d entries (%f) not larger than smaller TLB", entries, e)
		}
		prev = e
	}
}

func TestComponentNames(t *testing.T) {
	for _, c := range Components() {
		if strings.HasPrefix(c.String(), "component(") {
			t.Errorf("component %d missing a name", c)
		}
	}
	if Component(-1).String() != "component(-1)" {
		t.Error("out-of-range name wrong")
	}
}

func TestBreakdownOrdering(t *testing.T) {
	a := NewAccumulator(DefaultModel())
	a.Access(L1TLB, 1)
	a.Access(L2TLB, 1000)
	out := a.Breakdown()
	if !strings.Contains(out, "L1-TLB") || !strings.Contains(out, "L2-TLB") {
		t.Fatalf("breakdown missing components:\n%s", out)
	}
	if strings.Index(out, "L2-TLB") > strings.Index(out, "L1-TLB") {
		t.Error("breakdown not sorted by energy")
	}
}
