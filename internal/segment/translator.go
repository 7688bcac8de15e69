package segment

import (
	"fmt"

	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/stats"
)

// IndexCache caches index tree nodes by physical address. It is a regular
// physically addressed cache of 64-byte blocks (Section IV-C), 8-way by
// default, shared by all cores of the processor.
type IndexCache struct {
	c *cache.Cache
}

// IndexCacheConfig returns the index cache geometry for a capacity:
// associativity is 8 ways, clamped down when the cache is smaller than 8
// lines (the paper's sensitivity study goes down to a single 64 B block).
func IndexCacheConfig(sizeBytes int) cache.Config {
	ways := 8
	if lines := sizeBytes / addr.LineSize; lines < ways {
		ways = lines
	}
	return cache.Config{Name: "index-cache", SizeBytes: sizeBytes, Ways: ways, HitLatency: 3}
}

// NewIndexCache creates an index cache of the given size.
func NewIndexCache(sizeBytes int) *IndexCache {
	return &IndexCache{c: cache.New(IndexCacheConfig(sizeBytes))}
}

// Access looks up the node line at pa, filling on miss, and reports a hit.
func (ic *IndexCache) Access(pa addr.PA) bool {
	n := addr.PhysName(pa)
	l, _, _ := ic.c.AccessFill(n, cache.Exclusive, addr.PermRO)
	return l != nil
}

// Stats returns the hit/miss statistics.
func (ic *IndexCache) Stats() stats.HitMiss { return ic.c.Stats }

// Flush empties the cache (after a tree rebuild the node addresses move).
func (ic *IndexCache) Flush() {
	ic.c.FlushMatching(func(addr.Name) bool { return true })
}

// SizeBytes returns the configured capacity.
func (ic *IndexCache) SizeBytes() int { return ic.c.Config().SizeBytes }

// SegCacheEntries is the paper's segment cache size (128 entries).
const SegCacheEntries = 128

// scEntry caches a direct translation for one 2 MiB granule of a segment.
type scEntry struct {
	valid   bool
	asid    addr.ASID
	granule uint64 // va >> HugePageBits
	seg     *Segment
	lru     uint64
}

// SegCache is the 128-entry, 2 MiB-granularity segment cache that hides the
// index walk latency for hot regions. In virtualized systems its entries
// hold direct gVA->MA translations, skipping the gPA step (Section V-B).
type SegCache struct {
	sets [][]scEntry
	mask uint64
	tick uint64
}

// NewSegCache creates a segment cache with the given entry count, 8-way.
func NewSegCache(entries int) *SegCache {
	const ways = 8
	if entries <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("segment: invalid SC entries %d", entries))
	}
	nsets := entries / ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("segment: SC set count %d not a power of two", nsets))
	}
	sets := make([][]scEntry, nsets)
	backing := make([]scEntry, entries)
	for i := range sets {
		sets[i], backing = backing[:ways], backing[ways:]
	}
	return &SegCache{sets: sets, mask: uint64(nsets - 1)}
}

// Lookup returns the covering segment if a valid granule entry exists and
// the segment actually contains va (a granule can straddle a segment
// boundary, in which case the entry cannot serve the far side).
func (sc *SegCache) Lookup(asid addr.ASID, va addr.VA) (*Segment, bool) {
	sc.tick++
	g := va.HugePage()
	set := sc.sets[g&sc.mask]
	for i := range set {
		e := &set[i]
		if e.valid && e.asid == asid && e.granule == g {
			if e.seg.Contains(asid, va) {
				e.lru = sc.tick
				return e.seg, true
			}
		}
	}
	return nil, false
}

// Fill installs a granule entry for the segment covering va. A granule
// that straddles a segment boundary may occupy several ways — one per
// segment — so adjacent small segments do not thrash a shared granule.
func (sc *SegCache) Fill(asid addr.ASID, va addr.VA, seg *Segment) {
	sc.tick++
	g := va.HugePage()
	set := sc.sets[g&sc.mask]
	victim, minLru := 0, ^uint64(0)
	for i := range set {
		e := &set[i]
		// The scan stops at the first way that is either free or an exact
		// (asid, granule, segment) match — whichever comes first in way
		// order, matching the historical fill behavior exactly.
		if !e.valid || (e.asid == asid && e.granule == g && e.seg == seg) {
			victim = i
			break
		}
		// Value-tracking strict minimum so the LRU race compiles to
		// conditional moves instead of a data-dependent branch per way.
		if lv := e.lru; lv < minLru {
			victim, minLru = i, lv
		}
	}
	set[victim] = scEntry{valid: true, asid: asid, granule: g, seg: seg, lru: sc.tick}
}

// InvalidateSegment drops every entry pointing at seg (segment free/split).
func (sc *SegCache) InvalidateSegment(seg *Segment) {
	for si := range sc.sets {
		for wi := range sc.sets[si] {
			if sc.sets[si][wi].valid && sc.sets[si][wi].seg == seg {
				sc.sets[si][wi] = scEntry{}
			}
		}
	}
}

// FlushAll empties the segment cache.
func (sc *SegCache) FlushAll() {
	for si := range sc.sets {
		for wi := range sc.sets[si] {
			sc.sets[si][wi] = scEntry{}
		}
	}
}

// TranslatorConfig sets the delayed translation latencies (Section IV-C:
// 3-cycle index cache, 7-cycle segment table, ~20 cycles end to end for a
// depth-four walk).
type TranslatorConfig struct {
	// SCLatency is the segment cache lookup latency.
	SCLatency uint64
	// ICHitLatency is charged per index cache probe.
	ICHitLatency uint64
	// TableLatency is the hardware segment table access latency.
	TableLatency uint64
	// MemLatency supplies the cost of fetching an index tree node from
	// memory on an index cache miss.
	MemLatency func(pa addr.PA) uint64
}

// DefaultTranslatorConfig returns the paper's latencies with a flat
// memory-node fetch cost.
func DefaultTranslatorConfig() TranslatorConfig {
	return TranslatorConfig{
		SCLatency:    2,
		ICHitLatency: 3,
		TableLatency: 7,
		MemLatency:   func(addr.PA) uint64 { return 165 },
	}
}

// TranslateResult reports one delayed translation.
type TranslateResult struct {
	PA      addr.PA
	Perm    addr.Perm
	Seg     *Segment
	Latency uint64
	// SCHit reports the fast path.
	SCHit bool
	// Fault reports that no segment covers the address (OS interrupt).
	Fault bool
	// ICProbes and ICMisses count index cache activity for this walk.
	ICProbes, ICMisses int
}

// Translator is the hardware delayed many-segment translation engine:
// SC -> index tree walk through the index cache -> segment table.
type Translator struct {
	cfg TranslatorConfig
	// SC may be nil to model the design without a segment cache
	// (the Figure 9 ablation).
	SC  *SegCache
	IC  *IndexCache
	Mgr *Manager

	// Walks counts full index tree walks (SC misses).
	Walks stats.Counter
	// Faults counts translations not covered by any segment.
	Faults stats.Counter
	// WalkDepth records nodes visited per walk.
	WalkDepth *stats.Histogram

	// pathScratch backs index tree walks so a translation does not
	// allocate a node-path slice. A translator serves one memory system,
	// so the buffer is not contended.
	pathScratch []addr.PA
}

// NewTranslator builds a translation engine. sc may be nil.
func NewTranslator(cfg TranslatorConfig, sc *SegCache, ic *IndexCache, mgr *Manager) *Translator {
	if cfg.MemLatency == nil {
		cfg.MemLatency = DefaultTranslatorConfig().MemLatency
	}
	return &Translator{
		cfg: cfg, SC: sc, IC: ic, Mgr: mgr,
		WalkDepth: stats.NewHistogram(1, 2, 3, 4, 5, 6),
	}
}

// Translate resolves (asid, va) to a physical address after an LLC miss.
func (tr *Translator) Translate(asid addr.ASID, va addr.VA) TranslateResult {
	var res TranslateResult
	if tr.SC != nil {
		res.Latency += tr.cfg.SCLatency
		if seg, ok := tr.SC.Lookup(asid, va); ok {
			res.PA = seg.Translate(va)
			res.Perm = seg.Perm
			res.Seg = seg
			res.SCHit = true
			return res
		}
	}
	tr.Walks.Inc()
	id, path := tr.Mgr.Tree.LookupInto(asid, va, tr.pathScratch[:0])
	tr.pathScratch = path
	tr.WalkDepth.Observe(uint64(len(path)))
	for _, nodePA := range path {
		res.ICProbes++
		res.Latency += tr.cfg.ICHitLatency
		if !tr.IC.Access(nodePA) {
			res.ICMisses++
			res.Latency += tr.cfg.MemLatency(nodePA)
		}
	}
	res.Latency += tr.cfg.TableLatency
	seg := tr.Mgr.Table.Get(id)
	if seg == nil || !seg.Contains(asid, va) {
		res.Fault = true
		tr.Faults.Inc()
		return res
	}
	res.PA = seg.Translate(va)
	res.Perm = seg.Perm
	res.Seg = seg
	if tr.SC != nil {
		tr.SC.Fill(asid, va, seg)
	}
	return res
}
