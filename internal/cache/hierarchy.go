package cache

import (
	"fmt"

	"hybridvc/internal/addr"
	"hybridvc/internal/stats"
)

// HierarchyConfig describes the full on-chip hierarchy: per-core private
// L1I/L1D/L2 and a shared, inclusive LLC (Table IV of the paper).
type HierarchyConfig struct {
	NumCores int
	L1I      Config
	L1D      Config
	L2       Config
	LLC      Config
}

// DefaultHierarchyConfig returns the paper's Table IV hierarchy for n cores:
// 32 KiB 4-way L1 I/D (2/4 cycles), 256 KiB 8-way L2 (6 cycles), and a
// shared 2 MiB 16-way LLC (27 cycles).
func DefaultHierarchyConfig(n int) HierarchyConfig {
	return HierarchyConfig{
		NumCores: n,
		L1I:      Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 4, HitLatency: 2},
		L1D:      Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 4, HitLatency: 4},
		L2:       Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, HitLatency: 6},
		LLC:      Config{Name: "LLC", SizeBytes: 2 << 20, Ways: 16, HitLatency: 27},
	}
}

// AccessKind distinguishes the three reference types.
type AccessKind uint8

const (
	// Read is a data load.
	Read AccessKind = iota
	// Write is a data store.
	Write
	// Fetch is an instruction fetch.
	Fetch
)

// AccessResult reports the outcome of one hierarchy access.
type AccessResult struct {
	// Latency is the total cycles spent in the hierarchy (excluding DRAM,
	// which the caller adds after delayed translation on an LLC miss).
	Latency uint64
	// LLCMiss reports that the block had to come from memory.
	LLCMiss bool
	// HitLevel is 1, 2, or 3 for the level that supplied the block, or 0
	// on an LLC miss.
	HitLevel int
	// Perm is the permission recorded on the accessed line.
	Perm addr.Perm
	// Writebacks lists dirty blocks evicted from the LLC to memory by this
	// access; virtual names among them need delayed translation.
	Writebacks []addr.Name
}

// Hierarchy is the multi-core cache hierarchy with MESI coherence between
// private caches, inclusive of the shared LLC.
type Hierarchy struct {
	cfg HierarchyConfig
	l1i []*Cache
	l1d []*Cache
	l2  []*Cache
	llc *Cache

	// CoherenceInvals counts remote-copy invalidations caused by writes.
	CoherenceInvals stats.Counter
	// CoherenceDowngrades counts remote M/E copies downgraded by reads.
	CoherenceDowngrades stats.Counter
	// BackInvals counts inclusive back-invalidations from LLC evictions.
	BackInvals stats.Counter
	// MemWritebacks counts dirty lines written back to memory.
	MemWritebacks stats.Counter

	// wbScratch backs AccessScratch results so the access engine does not
	// allocate a Writebacks slice per reference.
	wbScratch []addr.Name

	// payloads maps metadata block names (Kind != PayloadData) resident
	// in the LLC to their one-word payloads; payloadListener is notified
	// when such a block is evicted or flushed.
	payloads        *payloadTable
	payloadListener PayloadListener
}

// NewHierarchy builds the hierarchy. It panics for a non-positive core
// count; the topology is fixed per experiment.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.NumCores <= 0 {
		panic(fmt.Sprintf("cache: invalid core count %d", cfg.NumCores))
	}
	h := &Hierarchy{cfg: cfg, llc: New(cfg.LLC), payloads: newPayloadTable()}
	for i := 0; i < cfg.NumCores; i++ {
		ic, dc, l2 := cfg.L1I, cfg.L1D, cfg.L2
		ic.Name = fmt.Sprintf("%s[%d]", ic.Name, i)
		dc.Name = fmt.Sprintf("%s[%d]", dc.Name, i)
		l2.Name = fmt.Sprintf("%s[%d]", l2.Name, i)
		h.l1i = append(h.l1i, New(ic))
		h.l1d = append(h.l1d, New(dc))
		h.l2 = append(h.l2, New(l2))
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// NumCores returns the configured core count.
func (h *Hierarchy) NumCores() int { return h.cfg.NumCores }

// L1I returns core i's instruction cache (for statistics).
func (h *Hierarchy) L1I(i int) *Cache { return h.l1i[i] }

// L1D returns core i's data cache (for statistics).
func (h *Hierarchy) L1D(i int) *Cache { return h.l1d[i] }

// L2 returns core i's private L2 (for statistics).
func (h *Hierarchy) L2(i int) *Cache { return h.l2[i] }

// LLC returns the shared last-level cache (for statistics).
func (h *Hierarchy) LLC() *Cache { return h.llc }

// Access performs one reference by core for the line named n with the given
// permission to record on fills. It implements the full coherent access
// path and returns the latency and miss outcome. Writebacks, when any, are
// freshly allocated.
func (h *Hierarchy) Access(core int, kind AccessKind, n addr.Name, perm addr.Perm) AccessResult {
	return h.access(core, kind, n, perm, nil)
}

// AccessScratch is Access with the Writebacks slice backed by a
// hierarchy-owned buffer, so steady-state accesses allocate nothing. The
// returned Writebacks alias that buffer: the caller must consume them
// before the next AccessScratch call.
func (h *Hierarchy) AccessScratch(core int, kind AccessKind, n addr.Name, perm addr.Perm) AccessResult {
	res := h.access(core, kind, n, perm, h.wbScratch[:0])
	h.wbScratch = res.Writebacks
	return res
}

// access is the shared body; wb seeds res.Writebacks (nil to allocate).
// Each level is looked up once: a level that missed is filled through
// fillAbsent, which installs the name without looking for it again.
func (h *Hierarchy) access(core int, kind AccessKind, n addr.Name, perm addr.Perm, wb []addr.Name) AccessResult {
	l1 := h.l1d[core]
	if kind == Fetch {
		l1 = h.l1i[core]
	}
	res := AccessResult{Latency: l1.Config().HitLatency, Writebacks: wb}

	if l := l1.Access(n); l != nil {
		res.HitLevel = 1
		res.Perm = l.Perm
		if kind == Write {
			if l.State == Shared {
				// Upgrade: invalidate every remote copy.
				h.invalidateRemote(core, n)
			}
			l.State = Modified
			h.syncL2Dirty(core, n)
		}
		return res
	}

	res.Latency += h.l2[core].Config().HitLatency
	if l := h.l2[core].Access(n); l != nil {
		res.HitLevel = 2
		res.Perm = l.Perm
		st := l.State
		if kind == Write {
			if st == Shared {
				h.invalidateRemote(core, n)
			}
			st = Modified
			l.State = Modified
		}
		h.fillL1(core, kind, n, st, l.Perm)
		return res
	}

	// Miss in the private caches: snoop the other cores before the LLC.
	remoteState := h.snoop(core, n, kind == Write)

	res.Latency += h.llc.Config().HitLatency
	llcState := Exclusive
	if kind == Write {
		llcState = Modified
	}
	// Nothing touches the LLC between its lookup and its fill-on-miss, so
	// the fused AccessFill (one lookup, then an install into the set's
	// last way) is byte-identical to the pair.
	if l, v, ok := h.llc.AccessFill(n, llcState, perm); l != nil {
		res.HitLevel = 3
		res.Perm = l.Perm
		h.fillPrivate(core, kind, n, remoteState, l.Perm)
		return res
	} else if ok {
		h.backInvalidate(v.Name, &res)
		if v.Dirty {
			res.Writebacks = append(res.Writebacks, v.Name)
			h.MemWritebacks.Inc()
		}
	}

	// LLC miss: the caller performs delayed translation + DRAM, then the
	// block fills bottom-up. Record the fill now.
	res.LLCMiss = true
	res.Perm = perm
	h.fillPrivate(core, kind, n, remoteState, perm)
	return res
}

// invalidateRemote invalidates every remote copy of n (a write upgrade).
func (h *Hierarchy) invalidateRemote(core int, n addr.Name) {
	h.snoop(core, n, true)
}

// snoop probes all remote private caches for n. For writes it invalidates
// remote copies; for reads it downgrades M/E copies to Shared. It returns
// Shared if any remote copy remains, else Invalid.
func (h *Hierarchy) snoop(core int, n addr.Name, isWrite bool) State {
	remote := Invalid
	for c := 0; c < h.cfg.NumCores; c++ {
		// Inclusion (L2 ⊇ L1d ∪ L1i) lets the L2 probe rule a core out, as
		// in backInvalidate: most snoops then cost one lookup per remote
		// core instead of three.
		if c == core || h.l2[c].Probe(n) == nil {
			continue
		}
		for _, pc := range []*Cache{h.l1d[c], h.l1i[c], h.l2[c]} {
			l := pc.Probe(n)
			if l == nil {
				continue
			}
			perm, state := l.Perm, l.State
			if isWrite {
				if dirty, _ := pc.Invalidate(n); dirty {
					// Dirty data is forwarded; it lives on in the LLC.
					h.llcAbsorbDirty(n, perm)
				}
				h.CoherenceInvals.Inc()
			} else {
				if state == Modified || state == Exclusive {
					if pc.Downgrade(n) {
						h.llcAbsorbDirty(n, perm)
					}
					h.CoherenceDowngrades.Inc()
				}
				remote = Shared
			}
		}
	}
	return remote
}

// llcAbsorbDirty records that dirty remote data was pushed into the LLC.
func (h *Hierarchy) llcAbsorbDirty(n addr.Name, perm addr.Perm) {
	if l := h.llc.Probe(n); l != nil {
		l.State = Modified
		return
	}
	// Not in the LLC: fill it, preserving inclusion for the victim.
	if v, ok := h.llc.fillAbsent(n, Modified, perm); ok {
		h.backInvalidate(v.Name, nil)
		if v.Dirty {
			h.MemWritebacks.Inc()
		}
	}
}

// fillPrivate installs n into core's L2 and L1 after an LLC hit or fill.
// Both missed n at the start of the access and nothing has filled them
// since, so neither looks for n again.
func (h *Hierarchy) fillPrivate(core int, kind AccessKind, n addr.Name, remote State, perm addr.Perm) {
	st := Exclusive
	if remote == Shared {
		st = Shared
	}
	if kind == Write {
		st = Modified
	}
	if v, ok := h.l2[core].fillAbsent(n, st, perm); ok {
		h.handleL2Victim(core, v)
	}
	h.fillL1(core, kind, n, st, perm)
	if kind == Write {
		// The LLC's copy is now stale relative to the private M copy; mark
		// the LLC line dirty so the eventual eviction writes back.
		if l := h.llc.Probe(n); l != nil {
			l.State = Modified
		}
	}
}

// fillL1 installs n, which missed in it at the start of the access, into
// the proper L1.
func (h *Hierarchy) fillL1(core int, kind AccessKind, n addr.Name, st State, perm addr.Perm) {
	l1 := h.l1d[core]
	if kind == Fetch {
		l1 = h.l1i[core]
		st = Shared // instruction lines are never written
	}
	if v, ok := l1.fillAbsent(n, st, perm); ok && v.Dirty {
		// Dirty L1 victim merges into L2 (and is dirty there).
		if l := h.l2[core].Probe(v.Name); l != nil {
			l.State = Modified
		} else if lv, evicted := h.l2[core].fillAbsent(v.Name, Modified, perm); evicted {
			h.handleL2Victim(core, lv)
		}
	}
}

// handleL2Victim pushes a private L2 victim down: dirty data merges into the
// LLC; L1 copies are back-invalidated to preserve L2⊇L1 inclusion.
func (h *Hierarchy) handleL2Victim(core int, v Victim) {
	for _, pc := range []*Cache{h.l1d[core], h.l1i[core]} {
		if dirty, present := pc.Invalidate(v.Name); present {
			h.BackInvals.Inc()
			if dirty {
				v.Dirty = true
			}
		}
	}
	if v.Dirty {
		h.llcAbsorbDirty(v.Name, addr.PermRW)
	}
}

// backInvalidate removes an LLC victim from every private cache (inclusive
// LLC), folding any dirtier private copy into the writeback. res may be
// nil when the caller has no use for the writeback name (dirty absorption,
// where the data lives on in the LLC). Metadata victims additionally drop
// their payload entry and notify the owner — the eviction half of the
// payload residency contract.
func (h *Hierarchy) backInvalidate(n addr.Name, res *AccessResult) {
	if n.Kind != addr.PayloadData {
		h.evictPayload(n)
	}
	dirty := false
	for c := 0; c < h.cfg.NumCores; c++ {
		// Inclusion (L2 ⊇ L1d ∪ L1i, maintained by handleL2Victim) lets
		// the L2 probe gate the L1 probes: a block absent from a core's
		// L2 cannot be in either of its L1s, so most victims cost one
		// lookup per core instead of three.
		d2, present := h.l2[c].Invalidate(n)
		if !present {
			continue
		}
		h.BackInvals.Inc()
		dirty = dirty || d2
		for _, pc := range []*Cache{h.l1d[c], h.l1i[c]} {
			if d, p := pc.Invalidate(n); p {
				h.BackInvals.Inc()
				dirty = dirty || d
			}
		}
	}
	if dirty {
		if res != nil {
			res.Writebacks = append(res.Writebacks, n)
		}
		h.MemWritebacks.Inc()
	}
}

// syncL2Dirty marks core's L2 copy dirty after an L1 write hit, keeping the
// write-back hierarchy conservative (the L2 will write back on eviction).
func (h *Hierarchy) syncL2Dirty(core int, n addr.Name) {
	if l := h.l2[core].Probe(n); l != nil {
		l.State = Modified
	}
	if l := h.llc.Probe(n); l != nil {
		l.State = Modified
	}
}

// FlushPage invalidates all lines of the given page everywhere, returning
// counts; dirty lines are counted as memory writebacks. The OS uses this on
// remaps and on non-synonym -> synonym status changes.
func (h *Hierarchy) FlushPage(page addr.Name) (flushed, dirty int) {
	for c := 0; c < h.cfg.NumCores; c++ {
		for _, pc := range []*Cache{h.l1d[c], h.l1i[c], h.l2[c]} {
			f, d := pc.FlushPage(page)
			flushed += f
			dirty += d
		}
	}
	f, d := h.llc.FlushPage(page)
	flushed += f
	dirty += d
	h.MemWritebacks.Add(uint64(dirty))
	return flushed, dirty
}

// SetPagePerm updates permission bits on all cached copies of a page
// (Section III-D r/o content sharing).
func (h *Hierarchy) SetPagePerm(page addr.Name, perm addr.Perm) (updated int) {
	for c := 0; c < h.cfg.NumCores; c++ {
		for _, pc := range []*Cache{h.l1d[c], h.l1i[c], h.l2[c]} {
			updated += pc.SetPagePerm(page, perm)
		}
	}
	updated += h.llc.SetPagePerm(page, perm)
	return updated
}

// FlushASID removes every line belonging to the address space (used when an
// address space is destroyed and its ASID recycled). Metadata blocks are
// virtually named, so the match catches them too; their payload entries are
// swept afterwards with the usual eviction notification.
func (h *Hierarchy) FlushASID(asid addr.ASID) (flushed int) {
	match := func(n addr.Name) bool { return !n.Synonym && n.ASID == asid }
	for c := 0; c < h.cfg.NumCores; c++ {
		for _, pc := range []*Cache{h.l1d[c], h.l1i[c], h.l2[c]} {
			f, _ := pc.FlushMatching(match)
			flushed += f
		}
	}
	f, _ := h.llc.FlushMatching(match)
	h.flushPayloadASID(asid)
	return flushed + f
}

// flushPayloadASID drops (with notification) every payload entry whose
// block belongs to the address space. The two-pass shape keeps the table
// iteration free of concurrent mutation.
func (h *Hierarchy) flushPayloadASID(asid addr.ASID) {
	var doomed []uint64
	h.payloads.forEach(func(k, _ uint64) {
		if n := addr.NameFromKey(k); !n.Synonym && n.ASID == asid {
			doomed = append(doomed, k)
		}
	})
	for _, k := range doomed {
		h.evictPayload(addr.NameFromKey(k))
	}
}

// CheckSets verifies every cache's per-set replacement state (its
// recency words) and returns the first violation. It holds for any
// hierarchy, including one whose L1s are not kept inclusive or coherent.
func (h *Hierarchy) CheckSets() error {
	for c := 0; c < h.cfg.NumCores; c++ {
		for _, pc := range []*Cache{h.l1d[c], h.l1i[c], h.l2[c]} {
			if err := pc.checkSets(); err != nil {
				return err
			}
		}
	}
	return h.llc.checkSets()
}

// CheckInvariants verifies structural invariants and returns an error
// describing the first violation: single-name uniqueness cannot be checked
// here (it needs the OS mapping), but every cache's set state (CheckSets),
// MESI exclusivity and L2⊇L1 inclusion can.
func (h *Hierarchy) CheckInvariants() error {
	if err := h.CheckSets(); err != nil {
		return err
	}
	// A Modified or Exclusive line in one core's private caches must not
	// coexist with any copy in another core's private caches.
	type holder struct {
		core  int
		state State
	}
	holders := make(map[addr.Name][]holder)
	for c := 0; c < h.cfg.NumCores; c++ {
		for _, pc := range []*Cache{h.l1d[c], h.l1i[c], h.l2[c]} {
			core := c
			pc.ForEachLine(func(n addr.Name, l *Line) {
				holders[n] = append(holders[n], holder{core, l.State})
			})
		}
	}
	for n, hs := range holders {
		cores := make(map[int]bool)
		exclusive := false
		for _, x := range hs {
			cores[x.core] = true
			if x.state == Modified || x.state == Exclusive {
				exclusive = true
			}
		}
		if exclusive && len(cores) > 1 {
			return fmt.Errorf("cache: %v held M/E while %d cores hold copies", n, len(cores))
		}
	}
	// Inclusion: every private line must be present in the LLC, and every
	// L1 line in its core's L2 (snoop and backInvalidate rely on that).
	for n := range holders {
		if h.llc.Probe(n) == nil {
			return fmt.Errorf("cache: %v cached privately but absent from LLC", n)
		}
	}
	for c := 0; c < h.cfg.NumCores; c++ {
		var err error
		for _, l1 := range []*Cache{h.l1d[c], h.l1i[c]} {
			l1.ForEachLine(func(n addr.Name, _ *Line) {
				if err == nil && h.l2[c].Probe(n) == nil {
					err = fmt.Errorf("cache: %v in core %d's L1 but not its L2", n, c)
				}
			})
		}
		if err != nil {
			return err
		}
	}
	// Metadata payloads must mirror LLC residency exactly.
	return h.checkPayloadResidency()
}
