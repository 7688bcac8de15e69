package core

import (
	"testing"

	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/virt"
)

func setupVirt(t *testing.T, withSC bool) (*VirtHybridMMU, *virt.Hypervisor, *virt.VM, *osmodel.Process) {
	t.Helper()
	hv := virt.NewHypervisor(2 << 30)
	vm, err := hv.NewVM(512<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultVirtHybridConfig(1)
	cfg.Hier.L1I = cache.Config{Name: "L1I", SizeBytes: 1 << 10, Ways: 2, HitLatency: 2}
	cfg.Hier.L1D = cache.Config{Name: "L1D", SizeBytes: 1 << 10, Ways: 2, HitLatency: 4}
	cfg.Hier.L2 = cache.Config{Name: "L2", SizeBytes: 4 << 10, Ways: 4, HitLatency: 6}
	cfg.Hier.LLC = cache.Config{Name: "LLC", SizeBytes: 16 << 10, Ways: 8, HitLatency: 27}
	cfg.WithSegmentCache = withSC
	m := NewVirtHybridMMU(cfg, vm, hv)
	p, err := vm.Kernel.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	return m, hv, vm, p
}

func TestVirtNonSynonymCachedByGVA(t *testing.T) {
	m, _, _, p := setupVirt(t, true)
	gva, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	res := m.Access(Request{Kind: cache.Read, VA: gva, Proc: p})
	if res.Fault || !res.LLCMiss {
		t.Fatalf("cold access: %+v", res)
	}
	if m.Hier.LLC().Probe(addr.VirtName(p.ASID, gva)) == nil {
		t.Error("block not cached under VMID-extended ASID + gVA")
	}
	if p.ASID.VMID() == 0 {
		t.Error("guest ASID lacks VMID")
	}
	// The delayed translation composed gVA->gPA->MA correctly.
	warm := m.Access(Request{Kind: cache.Read, VA: gva, Proc: p})
	if warm.Latency != 4 {
		t.Errorf("warm latency = %d", warm.Latency)
	}
}

func TestVirtDelayedTranslationComposition(t *testing.T) {
	m, _, vm, p := setupVirt(t, false)
	gva, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	ma, lat, ok := m.delayed2D(0, p, gva+0x123, false)
	if !ok {
		t.Fatal("delayed 2D translation failed")
	}
	// Compare with functional composition.
	gpa, _ := p.PT.Translate(gva + 0x123)
	want, _ := vm.TranslateGPA(addr.GPA(gpa))
	if ma != want {
		t.Errorf("MA = %#x, want %#x", uint64(ma), uint64(want))
	}
	if lat == 0 {
		t.Error("two-step translation was free")
	}
	c := &m.Counts
	if twoStep := c.DelayedDemand + c.DelayedWritebacks - c.DelayedSCHits; twoStep != 1 {
		t.Errorf("two-step translations = %d", twoStep)
	}
}

func TestVirtSegmentCacheSkipsTwoStep(t *testing.T) {
	m, _, _, p := setupVirt(t, true)
	gva, _ := p.Mmap(8<<20, addr.PermRW, osmodel.MmapOpts{})
	_, lat1, ok := m.delayed2D(0, p, gva, false)
	if !ok {
		t.Fatal("first translation failed")
	}
	ma2, lat2, ok := m.delayed2D(0, p, gva+0x40, false)
	if !ok {
		t.Fatal("second translation failed")
	}
	if lat2 >= lat1 {
		t.Errorf("SC hit latency %d not below two-step %d", lat2, lat1)
	}
	if lat2 != 2 {
		t.Errorf("SC hit latency = %d, want 2", lat2)
	}
	// The SC-supplied MA must match the functional composition.
	gpa, _ := p.PT.Translate(gva + 0x40)
	want, _ := m.vm.TranslateGPA(addr.GPA(gpa))
	if ma2 != want {
		t.Errorf("SC MA = %#x, want %#x", uint64(ma2), uint64(want))
	}
	if m.Counts.DelayedSCHits != 1 {
		t.Errorf("SC hits = %d", m.Counts.DelayedSCHits)
	}
}

func TestVirtHypervisorInducedSynonym(t *testing.T) {
	m, hv, vm, p := setupVirt(t, true)
	gva, _ := p.Mmap(addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
	vm.TrackProcessRegion(p, gva, addr.PageSize)
	pte, _ := p.PT.Lookup(gva)
	// Hypervisor shares the frame within the same VM (e.g. a device
	// buffer): host filter flags the gVA even though the guest OS did not.
	if err := hv.ShareGuestFrames(vm, pte.Frame, vm, pte.Frame); err != nil {
		t.Fatal(err)
	}
	res := m.Access(Request{Kind: cache.Read, VA: gva, Proc: p})
	if res.Fault {
		t.Fatal("fault")
	}
	if m.Counts.FilterCandidates != 1 {
		t.Errorf("candidates = %d; host filter not consulted", m.Counts.FilterCandidates)
	}
	if m.TrueSynonymAccesses.Value() != 1 {
		t.Errorf("true synonyms = %d", m.TrueSynonymAccesses.Value())
	}
	// Data cached under the machine address.
	gpa, _ := p.PT.Translate(gva)
	ma, _ := vm.TranslateGPA(addr.GPA(gpa))
	if m.Hier.LLC().Probe(addr.PhysName(ma)) == nil {
		t.Error("hypervisor-induced synonym not cached physically")
	}
}

// TestVirtFalsePositiveCorrection leaves a stale guest-filter bit on a
// private page: the filter pair flags it, the 2D walk finds the page
// private, and the synonym TLB's correction entry sends both accesses down
// the virtual path as false positives.
func TestVirtFalsePositiveCorrection(t *testing.T) {
	m, _, _, p := setupVirt(t, true)
	gva, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	p.Filter.MarkSynonym(gva)
	for i := 0; i < 2; i++ {
		if res := m.Access(Request{Kind: cache.Read, VA: gva, Proc: p}); res.Fault {
			t.Fatalf("access %d faulted", i)
		}
	}
	if m.Counts.FalsePositives != 2 {
		t.Errorf("false positives = %d, want 2", m.Counts.FalsePositives)
	}
	if m.TrueSynonymAccesses.Value() != 0 {
		t.Errorf("true synonyms = %d, want 0", m.TrueSynonymAccesses.Value())
	}
	if m.Hier.LLC().Probe(addr.VirtName(p.ASID, gva)) == nil {
		t.Error("false-positive access not cached under its virtual name")
	}
	if e, ok := m.synTLB[0].Probe(p.ASID, gva.Page()); !ok || !e.NonSynonym {
		t.Error("no NonSynonym correction entry installed")
	}
}

func TestVirtGuestOSSynonym(t *testing.T) {
	m, _, _, p1 := setupVirt(t, true)
	p2, _ := m.vm.Kernel.NewProcess()
	vas, err := m.vm.Kernel.ShareAnonymous([]*osmodel.Process{p1, p2}, 4*addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	m.Access(Request{Kind: cache.Write, VA: vas[0], Proc: p1})
	r2 := m.Access(Request{Kind: cache.Read, VA: vas[1], Proc: p2})
	if r2.LLCMiss {
		t.Error("guest-shared data not found under the single machine name")
	}
}

func TestVirtEnergyChargesBothFilters(t *testing.T) {
	m, _, _, p := setupVirt(t, true)
	gva, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	m.Access(Request{Kind: cache.Read, VA: gva, Proc: p})
	if got := m.Energy().Accesses[2]; got != 2 { // SynonymFilter
		t.Errorf("filter accesses = %d, want 2 (guest+host)", got)
	}
	if m.Name() != "virt-hybrid+sc" {
		t.Errorf("name = %q", m.Name())
	}
}
