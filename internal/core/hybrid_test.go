package core

import (
	"math/rand"
	"testing"

	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/pipeline"
)

// smallHybridConfig shrinks caches so evictions and LLC misses happen fast.
func smallHybridConfig(cores int, kind DelayedKind, withSC bool) HybridConfig {
	cfg := DefaultHybridConfig(cores)
	cfg.Hier.L1I = cache.Config{Name: "L1I", SizeBytes: 1 << 10, Ways: 2, HitLatency: 2}
	cfg.Hier.L1D = cache.Config{Name: "L1D", SizeBytes: 1 << 10, Ways: 2, HitLatency: 4}
	cfg.Hier.L2 = cache.Config{Name: "L2", SizeBytes: 4 << 10, Ways: 4, HitLatency: 6}
	cfg.Hier.LLC = cache.Config{Name: "LLC", SizeBytes: 16 << 10, Ways: 8, HitLatency: 27}
	cfg.Delayed = kind
	cfg.WithSegmentCache = withSC
	cfg.DelayedTLBEntries = 1024
	return cfg
}

func setupHybrid(t *testing.T, kind DelayedKind, withSC bool) (*HybridMMU, *osmodel.Kernel, *osmodel.Process) {
	t.Helper()
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
	m := NewHybridMMU(smallHybridConfig(1, kind, withSC), k)
	p, err := k.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	return m, k, p
}

func TestNonSynonymCachedVirtually(t *testing.T) {
	m, _, p := setupHybrid(t, DelayedSegments, true)
	va, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	res := m.Access(Request{Kind: cache.Read, VA: va, Proc: p})
	if res.Fault {
		t.Fatal("unexpected fault")
	}
	if !res.LLCMiss {
		t.Fatal("cold access did not miss LLC")
	}
	// The block must be cached under ASID+VA, not PA.
	if m.Hier.LLC().Probe(addr.VirtName(p.ASID, va)) == nil {
		t.Error("block not cached under virtual name")
	}
	pa, _ := p.PT.Translate(va)
	if m.Hier.LLC().Probe(addr.PhysName(pa)) != nil {
		t.Error("non-synonym block cached under physical name")
	}
	// No synonym TLB activity for a non-synonym access.
	if m.Counts.TLBLookups[pipeline.TLBSynonym] != 0 {
		t.Error("synonym TLB accessed for a non-synonym address")
	}
	// Warm access hits L1 with no translation at all.
	res2 := m.Access(Request{Kind: cache.Read, VA: va, Proc: p})
	if res2.Latency != 4 || res2.HitLevel != 1 {
		t.Errorf("warm access: %+v", res2)
	}
}

func TestSynonymCachedPhysicallyAndShared(t *testing.T) {
	// The single-name property in action: two processes accessing the
	// same shared page through different VAs must hit the same physical
	// cache line.
	m, k, p1 := setupHybrid(t, DelayedSegments, true)
	p2, _ := k.NewProcess()
	vas, err := k.ShareAnonymous([]*osmodel.Process{p1, p2}, 8*addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	r1 := m.Access(Request{Core: 0, Kind: cache.Write, VA: vas[0], Proc: p1})
	if r1.Fault {
		t.Fatal("fault on shared write")
	}
	if m.TrueSynonymAccesses.Value() != 1 {
		t.Fatalf("synonym accesses = %d", m.TrueSynonymAccesses.Value())
	}
	pa, _ := p1.PT.Translate(vas[0])
	if m.Hier.LLC().Probe(addr.PhysName(pa)) == nil {
		t.Fatal("synonym block not cached physically")
	}
	// p2 reads the same data via its own VA: must hit in cache (L1),
	// because both names resolve to the same physical name.
	r2 := m.Access(Request{Core: 0, Kind: cache.Read, VA: vas[1], Proc: p2})
	if r2.LLCMiss {
		t.Error("second process missed on shared data")
	}
	// And no virtual-name copies exist.
	if m.Hier.LLC().Probe(addr.VirtName(p1.ASID, vas[0])) != nil ||
		m.Hier.LLC().Probe(addr.VirtName(p2.ASID, vas[1])) != nil {
		t.Error("synonym data also cached under a virtual name")
	}
}

func TestFalsePositiveCorrection(t *testing.T) {
	m, k, p := setupHybrid(t, DelayedSegments, true)
	// Create a shared region, then find a private page that the filter
	// (falsely) flags.
	if _, err := k.ShareAnonymous([]*osmodel.Process{p}, 64*addr.PageSize); err != nil {
		t.Fatal(err)
	}
	priv, _ := p.Mmap(64<<20, addr.PermRW, osmodel.MmapOpts{})
	var fpVA addr.VA
	found := false
	for off := uint64(0); off < 64<<20; off += addr.PageSize {
		va := priv + addr.VA(off)
		if p.Filter.IsCandidate(va) {
			fpVA, found = va, true
			break
		}
	}
	if !found {
		t.Skip("no false positive found in range (filter too clean)")
	}
	res := m.Access(Request{Kind: cache.Read, VA: fpVA, Proc: p})
	if res.Fault {
		t.Fatal("fault on false positive")
	}
	if m.Counts.FalsePositives != 1 {
		t.Fatalf("false positives = %d", m.Counts.FalsePositives)
	}
	// Despite the detour, the data is cached virtually.
	if m.Hier.LLC().Probe(addr.VirtName(p.ASID, fpVA)) == nil {
		t.Error("false-positive access not cached virtually")
	}
	// The correcting TLB entry makes the next access cheap and keeps it
	// on the virtual path.
	m.Access(Request{Kind: cache.Read, VA: fpVA, Proc: p})
	if m.Counts.FalsePositives != 2 {
		t.Error("second access did not take the corrected TLB path")
	}
	e, ok := m.SynTLB(0).Probe(p.ASID, fpVA.Page())
	if !ok || !e.NonSynonym {
		t.Error("no NonSynonym correction entry installed")
	}
}

func TestDelayedTranslationOnlyOnLLCMiss(t *testing.T) {
	m, _, p := setupHybrid(t, DelayedSegments, false)
	va, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	m.Access(Request{Kind: cache.Read, VA: va, Proc: p})
	if m.Counts.DelayedDemand != 1 {
		t.Fatalf("delayed translations = %d", m.Counts.DelayedDemand)
	}
	// Hits anywhere in the hierarchy never translate.
	for i := 0; i < 10; i++ {
		m.Access(Request{Kind: cache.Read, VA: va, Proc: p})
	}
	if m.Counts.DelayedDemand != 1 {
		t.Errorf("cache hits triggered delayed translation: %d",
			m.Counts.DelayedDemand)
	}
}

func TestSegmentCacheReducesMissLatency(t *testing.T) {
	run := func(withSC bool) uint64 {
		m, _, p := setupHybrid(t, DelayedSegments, withSC)
		va, _ := p.Mmap(8<<20, addr.PermRW, osmodel.MmapOpts{})
		var total uint64
		// Stream over 2 MiB so every access misses the tiny LLC but stays
		// within one SC granule.
		for off := uint64(0); off < 2<<20; off += 64 {
			res := m.Access(Request{Kind: cache.Read, VA: va + addr.VA(off), Proc: p})
			total += res.Latency
		}
		return total
	}
	withSC, withoutSC := run(true), run(false)
	if withSC >= withoutSC {
		t.Errorf("SC did not reduce latency: %d vs %d", withSC, withoutSC)
	}
}

func TestDelayedPageTLBMode(t *testing.T) {
	m, _, p := setupHybrid(t, DelayedPageTLB, false)
	va, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	res := m.Access(Request{Kind: cache.Read, VA: va, Proc: p})
	if res.Fault || !res.LLCMiss {
		t.Fatalf("cold access: %+v", res)
	}
	if misses := m.Counts.Misses(pipeline.TLBDelayed); misses != 1 {
		t.Fatalf("delayed TLB misses = %d", misses)
	}
	// Another line in the same page misses the LLC but hits the delayed
	// TLB (no page walk).
	res2 := m.Access(Request{Kind: cache.Read, VA: va + 0x340, Proc: p})
	if !res2.LLCMiss {
		t.Skip("line unexpectedly cached")
	}
	if m.Counts.Misses(pipeline.TLBDelayed) != 1 {
		t.Errorf("same-page access walked again")
	}
	if res2.Latency >= res.Latency {
		t.Errorf("delayed TLB hit (%d) not cheaper than walk (%d)", res2.Latency, res.Latency)
	}
}

func TestCoWWriteFault(t *testing.T) {
	m, k, p1 := setupHybrid(t, DelayedSegments, true)
	p2, _ := k.NewProcess()
	va1, _ := p1.Mmap(addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
	va2, _ := p2.Mmap(addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
	if err := k.ContentShare(p2, va2, p1, va1); err != nil {
		t.Fatal(err)
	}
	// Reads work for both, virtually cached, r/o.
	r := m.Access(Request{Kind: cache.Read, VA: va2, Proc: p2})
	if r.Fault {
		t.Fatal("read of content-shared page faulted")
	}
	// A write faults (CoW) and then succeeds with a private frame.
	w := m.Access(Request{Kind: cache.Write, VA: va2, Proc: p2})
	if !w.Fault {
		t.Fatal("write to r/o content-shared page did not fault")
	}
	if k.CoWFaults.Value() != 1 {
		t.Errorf("CoW faults = %d", k.CoWFaults.Value())
	}
	pa1, _ := p1.PT.Translate(va1)
	pa2, _ := p2.PT.Translate(va2)
	if pa1 == pa2 {
		t.Error("write did not break sharing")
	}
	// Subsequent writes proceed without faults.
	w2 := m.Access(Request{Kind: cache.Write, VA: va2, Proc: p2})
	if w2.Fault {
		t.Error("post-CoW write faulted")
	}
}

func TestDemandPagingFault(t *testing.T) {
	m, k, p := setupHybrid(t, DelayedSegments, true)
	va, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{Demand: true})
	res := m.Access(Request{Kind: cache.Read, VA: va, Proc: p})
	if !res.Fault {
		t.Fatal("first touch of demand page did not fault")
	}
	if res.Latency < FaultLatency {
		t.Error("fault latency not charged")
	}
	if k.PageFaults.Value() != 1 {
		t.Errorf("page faults = %d", k.PageFaults.Value())
	}
	res2 := m.Access(Request{Kind: cache.Read, VA: va, Proc: p})
	if res2.Fault {
		t.Error("second access faulted")
	}
}

// checkSingleName verifies the paper's key invariant over the entire
// hierarchy: every physical block is cached under exactly one name.
func checkSingleName(t *testing.T, m *HybridMMU, k *osmodel.Kernel) {
	t.Helper()
	owner := map[addr.PA]addr.Name{}
	check := func(n addr.Name, _ *cache.Line) {
		var pa addr.PA
		if n.Synonym {
			pa = addr.PA(n.Addr)
		} else {
			p := k.Process(n.ASID)
			if p == nil {
				return
			}
			got, ok := p.PT.Translate(addr.VA(n.Addr))
			if !ok {
				t.Errorf("cached line %v has no translation", n)
				return
			}
			pa = got
		}
		if prev, dup := owner[pa]; dup && prev != n {
			t.Fatalf("physical block %#x cached under two names: %v and %v",
				uint64(pa), prev, n)
		}
		owner[pa] = n
	}
	h := m.Hier
	for c := 0; c < h.NumCores(); c++ {
		h.L1D(c).ForEachLine(check)
		h.L1I(c).ForEachLine(check)
		h.L2(c).ForEachLine(check)
	}
	h.LLC().ForEachLine(check)
}

func TestSingleNameInvariantRandomized(t *testing.T) {
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
	m := NewHybridMMU(smallHybridConfig(2, DelayedSegments, true), k)
	p1, _ := k.NewProcess()
	p2, _ := k.NewProcess()
	shared, err := k.ShareAnonymous([]*osmodel.Process{p1, p2}, 16*addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	priv1, _ := p1.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	priv2, _ := p2.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})

	rng := rand.New(rand.NewSource(13))
	for step := 0; step < 20000; step++ {
		var req Request
		proc, base, size := p1, priv1, uint64(1<<20)
		if rng.Intn(2) == 1 {
			proc, base = p2, priv2
		}
		if rng.Intn(5) == 0 { // shared access
			idx := rng.Intn(2)
			base = shared[idx]
			proc = []*osmodel.Process{p1, p2}[idx]
			size = 16 * addr.PageSize
		}
		req = Request{
			Core: rng.Intn(2),
			Kind: []cache.AccessKind{cache.Read, cache.Write}[rng.Intn(2)],
			VA:   base + addr.VA(rng.Uint64()%size),
			Proc: proc,
		}
		if res := m.Access(req); res.Fault {
			t.Fatalf("unexpected fault at step %d", step)
		}
		if step%2500 == 0 {
			checkSingleName(t, m, k)
			if err := m.Hier.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkSingleName(t, m, k)
}

func TestMarkSharedFlushesVirtualLines(t *testing.T) {
	m, k, p := setupHybrid(t, DelayedSegments, true)
	va, _ := p.Mmap(4*addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
	m.Access(Request{Kind: cache.Write, VA: va, Proc: p})
	if m.Hier.LLC().Probe(addr.VirtName(p.ASID, va)) == nil {
		t.Fatal("setup: line not cached virtually")
	}
	// The OS transitions the page to shared: virtual lines must be gone.
	if err := k.MarkShared(p, va, 4*addr.PageSize); err != nil {
		t.Fatal(err)
	}
	if m.Hier.LLC().Probe(addr.VirtName(p.ASID, va)) != nil {
		t.Fatal("virtual line survived synonym transition")
	}
	// The next access goes through the synonym path and caches physically.
	m.Access(Request{Kind: cache.Read, VA: va, Proc: p})
	pa, _ := p.PT.Translate(va)
	if m.Hier.LLC().Probe(addr.PhysName(pa)) == nil {
		t.Error("post-transition access not cached physically")
	}
	checkSingleName(t, m, k)
}

func TestEnergyAccounting(t *testing.T) {
	m, _, p := setupHybrid(t, DelayedSegments, true)
	va, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	for i := 0; i < 100; i++ {
		m.Access(Request{Kind: cache.Read, VA: va + addr.VA(i*64), Proc: p})
	}
	acc := m.Energy()
	if acc.Accesses[1] != 0 { // L2TLB: hybrid has none
		t.Error("hybrid charged L2 TLB energy")
	}
	if acc.Dynamic() <= 0 {
		t.Error("no dynamic energy recorded")
	}
	// Filter probed on every access.
	if got := acc.Accesses[2]; got != 100 { // SynonymFilter
		t.Errorf("filter accesses = %d, want 100", got)
	}
}

func TestEnigmaFilterBypass(t *testing.T) {
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
	cfg := smallHybridConfig(1, DelayedPageTLB, false)
	cfg.FilterBypass = true
	m := NewHybridMMU(cfg, k)
	p, _ := k.NewProcess()
	va, _ := p.Mmap(1<<20, addr.PermRW, osmodel.MmapOpts{})
	m.Access(Request{Kind: cache.Read, VA: va, Proc: p})
	if m.Counts.FilterProbes != 0 {
		t.Error("filter probed in bypass mode")
	}
	if m.Energy().Accesses[2] != 0 {
		t.Error("filter energy charged in bypass mode")
	}
	if m.Name() != "enigma-dtlb1024" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestNames(t *testing.T) {
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 26})
	if n := NewHybridMMU(smallHybridConfig(1, DelayedSegments, true), k).Name(); n != "hybrid-manyseg+sc" {
		t.Errorf("name = %q", n)
	}
	k2 := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 26})
	if n := NewHybridMMU(smallHybridConfig(1, DelayedSegments, false), k2).Name(); n != "hybrid-manyseg" {
		t.Errorf("name = %q", n)
	}
	k3 := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 26})
	if n := NewHybridMMU(smallHybridConfig(1, DelayedPageTLB, false), k3).Name(); n != "hybrid-dtlb1024" {
		t.Errorf("name = %q", n)
	}
}

func TestDelayedTLBEnergyScalesWithSize(t *testing.T) {
	run := func(entries int) float64 {
		k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
		cfg := smallHybridConfig(1, DelayedPageTLB, false)
		cfg.DelayedTLBEntries = entries
		m := NewHybridMMU(cfg, k)
		p, _ := k.NewProcess()
		va, _ := p.Mmap(8<<20, addr.PermRW, osmodel.MmapOpts{})
		for off := uint64(0); off < 4<<20; off += 64 {
			m.Access(Request{Kind: cache.Read, VA: va + addr.VA(off), Proc: p})
		}
		return m.Energy().Dynamic()
	}
	small, big := run(1024), run(32768)
	if big <= small {
		t.Errorf("32K-entry delayed TLB energy (%.0f) not above 1K (%.0f)", big, small)
	}
}
