package main

import (
	"fmt"
	"math/rand"
	"time"

	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/mem"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/segment"
	"hybridvc/internal/synfilter"
	"hybridvc/internal/tlb"
)

// Micro loops: each builds one hardware structure, then times a fixed
// number of calls to its lookup over seeded inputs. The reported figure is
// the median ns per call over microReps repetitions.
const (
	microIters = 200_000
	microReps  = 5
)

// microSink keeps the compiler from discarding the timed calls.
var microSink uint64

// timeLoop returns the median ns per call of body over microReps
// repetitions of microIters calls.
func timeLoop(body func(i int)) float64 {
	per := make([]float64, microReps)
	for r := range per {
		t := time.Now()
		for i := 0; i < microIters; i++ {
			body(i)
		}
		per[r] = float64(time.Since(t).Nanoseconds()) / microIters
	}
	return median(per)
}

// runMicro sets the six structure metrics.
func runMicro(o *outcome, seed int64) error {
	rng := rand.New(rand.NewSource(seed))

	f := synfilter.New()
	f.MarkSynonymRange(0x7000_0000_0000, 1<<20)
	vas := make([]addr.VA, 4096)
	for i := range vas {
		vas[i] = addr.VA(rng.Uint64() % (1 << addr.VABits))
	}
	o.set("synfilter.lookup_ns", timeLoop(func(i int) {
		if f.IsCandidate(vas[i%len(vas)]) {
			microSink++
		}
	}))

	t := tlb.New(tlb.Config{Name: "micro", Entries: 1024, Ways: 8, Latency: 7})
	asid := addr.MakeASID(0, 1)
	for vpn := uint64(0); vpn < 1024; vpn++ {
		t.Insert(tlb.Entry{ASID: asid, VPN: vpn, PFN: vpn})
	}
	vpns := make([]uint64, 4096)
	for i := range vpns {
		vpns[i] = rng.Uint64() % 2048
	}
	o.set("tlb.lookup_ns", timeLoop(func(i int) {
		if _, ok := t.Lookup(asid, vpns[i%len(vpns)]); ok {
			microSink++
		}
	}))

	c := cache.New(cache.Config{Name: "micro", SizeBytes: 2 << 20, Ways: 16, HitLatency: 27})
	names := make([]addr.Name, 8192)
	for i := range names {
		names[i] = addr.VirtName(asid, addr.VA(i*64))
		c.Fill(names[i], cache.Exclusive, addr.PermRW)
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	o.set("cache.access_ns", timeLoop(func(i int) {
		if c.Access(names[i%len(names)]) != nil {
			microSink++
		}
	}))

	mgr := segment.NewManager(segment.NewNodeArena(mem.NewAllocator(1 << 30)))
	entries := make([]segment.TreeEntry, 2048)
	for i := range entries {
		entries[i] = segment.TreeEntry{Key: segment.MakeKey(asid, addr.VA(i)<<21), Value: segment.ID(i)}
	}
	mgr.Tree.Build(entries)
	treeVAs := make([]addr.VA, 4096)
	for i := range treeVAs {
		treeVAs[i] = addr.VA(rng.Uint64() % (2048 << 21))
	}
	o.set("segment.tree_lookup_ns", timeLoop(func(i int) {
		mgr.Tree.Lookup(asid, treeVAs[i%len(treeVAs)])
	}))

	alloc := mem.NewAllocator(1 << 32)
	smgr := segment.NewManager(segment.NewNodeArena(alloc))
	ic := segment.NewIndexCache(32 << 10)
	smgr.OnRebuild = ic.Flush
	for i := 0; i < 512; i++ {
		pa, ok := alloc.AllocContiguous(256)
		if !ok {
			return fmt.Errorf("micro: segment allocation %d failed", i)
		}
		if _, err := smgr.Allocate(asid, addr.VA(i)<<21, 256*addr.PageSize, pa, addr.PermRW); err != nil {
			return fmt.Errorf("micro: %w", err)
		}
	}
	tr := segment.NewTranslator(segment.DefaultTranslatorConfig(), segment.NewSegCache(segment.SegCacheEntries), ic, smgr)
	segVAs := make([]addr.VA, 4096)
	for i := range segVAs {
		segVAs[i] = addr.VA(rng.Uint64() % (512 << 21))
	}
	o.set("segment.translate_ns", timeLoop(func(i int) {
		tr.Translate(asid, segVAs[i%len(segVAs)])
	}))

	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 1 << 30})
	p, err := k.NewProcess()
	if err != nil {
		return fmt.Errorf("micro: %w", err)
	}
	base, err := p.Mmap(64<<20, addr.PermRW, osmodel.MmapOpts{})
	if err != nil {
		return fmt.Errorf("micro: %w", err)
	}
	walkVAs := make([]addr.VA, 4096)
	for i := range walkVAs {
		walkVAs[i] = base + addr.VA(rng.Uint64()%(64<<20))
	}
	o.set("pagetable.walk_ns", timeLoop(func(i int) {
		p.PT.WalkPath(walkVAs[i%len(walkVAs)])
	}))
	return nil
}
