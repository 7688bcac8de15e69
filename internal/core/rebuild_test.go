package core

import (
	"testing"

	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/osmodel"
)

// setupStaleFilter builds a process whose filter carries stale bits: a
// large shared region is created, accessed, and then transitioned back to
// private, leaving the filter saturated while no synonyms remain.
func setupStaleFilter(t *testing.T, threshold float64) (*HybridMMU, *osmodel.Kernel, *osmodel.Process, addr.VA) {
	t.Helper()
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
	cfg := smallHybridConfig(1, DelayedSegments, true)
	cfg.FPRebuildThreshold = threshold
	cfg.FPWindow = 512
	m := NewHybridMMU(cfg, k)
	p, _ := k.NewProcess()
	vas, err := k.ShareAnonymous([]*osmodel.Process{p}, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.MarkPrivate(p, vas[0], 4<<20); err != nil {
		t.Fatal(err)
	}
	// Filter still flags the now-private range (stale bits).
	if !p.Filter.IsCandidate(vas[0]) {
		t.Fatal("setup: filter already clean")
	}
	return m, k, p, vas[0]
}

func TestMarkPrivateTransition(t *testing.T) {
	m, k, p, va := setupStaleFilter(t, 0)
	// PTE sharing bit cleared.
	pte, ok := p.PT.Lookup(va)
	if !ok || pte.Shared {
		t.Fatalf("PTE after MarkPrivate: %+v ok=%v", pte, ok)
	}
	// Accesses are false positives: detected as candidates, corrected to
	// the virtual path by the TLB, and cached under ASID+VA.
	res := m.Access(Request{Kind: cache.Read, VA: va, Proc: p})
	if res.Fault {
		t.Fatal("fault")
	}
	if m.Counts.FalsePositives != 1 {
		t.Errorf("false positives = %d, want 1", m.Counts.FalsePositives)
	}
	if m.Hier.LLC().Probe(addr.VirtName(p.ASID, va)) == nil {
		t.Error("private page not cached virtually after transition")
	}
	// The live synonym range list is empty.
	if len(p.SynonymRanges) != 0 {
		t.Errorf("synonym ranges = %d", len(p.SynonymRanges))
	}
	_ = k
}

func TestAdaptiveRebuildClearsStaleFilter(t *testing.T) {
	m, _, p, va := setupStaleFilter(t, 0.02)
	// Hammer the stale range: false positives accumulate until the
	// policy fires and the rebuilt (empty) filter stops flagging.
	for i := 0; i < 4096; i++ {
		m.Access(Request{Kind: cache.Read, VA: va + addr.VA((i%1024)*addr.PageSize), Proc: p})
	}
	if m.FilterRebuilds.Value() == 0 {
		t.Fatal("adaptive policy never fired")
	}
	if p.Filter.IsCandidate(va) {
		t.Error("filter still stale after rebuild")
	}
	// After the rebuild, accesses stop being candidates.
	before := m.Counts.FilterCandidates
	for i := 0; i < 256; i++ {
		m.Access(Request{Kind: cache.Read, VA: va + addr.VA((i%1024)*addr.PageSize), Proc: p})
	}
	if got := m.Counts.FilterCandidates - before; got != 0 {
		t.Errorf("%d candidates after rebuild, want 0", got)
	}
}

func TestAdaptiveRebuildDisabledByDefault(t *testing.T) {
	m, _, p, va := setupStaleFilter(t, 0)
	for i := 0; i < 4096; i++ {
		m.Access(Request{Kind: cache.Read, VA: va + addr.VA((i%1024)*addr.PageSize), Proc: p})
	}
	if m.FilterRebuilds.Value() != 0 {
		t.Error("policy fired while disabled")
	}
	if !p.Filter.IsCandidate(va) {
		t.Error("filter rebuilt without policy")
	}
}

func TestAdaptiveRebuildSparesLiveSynonyms(t *testing.T) {
	// A rebuild must keep flagging live synonym ranges.
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
	cfg := smallHybridConfig(1, DelayedSegments, true)
	cfg.FPRebuildThreshold = 0.02
	cfg.FPWindow = 512
	m := NewHybridMMU(cfg, k)
	p, _ := k.NewProcess()
	stale, _ := k.ShareAnonymous([]*osmodel.Process{p}, 2<<20)
	live, _ := k.ShareAnonymous([]*osmodel.Process{p}, 8*addr.PageSize)
	if err := k.MarkPrivate(p, stale[0], 2<<20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		m.Access(Request{Kind: cache.Read, VA: stale[0] + addr.VA((i%512)*addr.PageSize), Proc: p})
	}
	if m.FilterRebuilds.Value() == 0 {
		t.Fatal("policy never fired")
	}
	if !p.Filter.IsCandidate(live[0]) {
		t.Error("rebuild dropped a live synonym range")
	}
	res := m.Access(Request{Kind: cache.Write, VA: live[0], Proc: p})
	if res.Fault {
		t.Fatal("live synonym access faulted")
	}
	if m.TrueSynonymAccesses.Value() == 0 {
		t.Error("live synonym not detected after rebuild")
	}
}
