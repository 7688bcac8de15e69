package cache

import (
	"fmt"
	"math/bits"

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

// MaxCores is the largest core count a Hierarchy supports: an LLC way's
// holder mask has one bit per core.
const MaxCores = 64

// Hierarchy is the multi-core cache hierarchy with MESI coherence between
// private caches, inclusive of the shared LLC.
type Hierarchy struct {
	cfg HierarchyConfig
	l1i []*Cache
	l1d []*Cache
	l2  []*Cache
	llc *Cache

	// holders has one word per LLC way, indexed like the LLC's keys: bit
	// c is set exactly while core c's L2 holds the way's line. By
	// inclusion (LLC ⊇ L2 ⊇ L1d ∪ L1i) those are the only cores with any
	// private copy, so snoops, back-invalidations and flushes visit only
	// them. OVC drives its caches directly and never takes the coherent
	// path, so its masks stay empty.
	holders []uint64
	// llcWay[c][i] is the way, within its LLC set, of the line in way i of
	// core c's L2. Inclusion keeps the line in that LLC way while the L2
	// copy lives, so an L2 eviction clears its holder bit with no LLC
	// lookup.
	llcWay [][]uint8

	// CoherenceInvals counts remote-copy invalidations caused by writes.
	CoherenceInvals stats.Counter
	// CoherenceDowngrades counts remote M/E copies downgraded by reads.
	CoherenceDowngrades stats.Counter
	// BackInvals counts inclusive back-invalidations from LLC evictions.
	BackInvals stats.Counter
	// MemWritebacks counts dirty lines written back to memory.
	MemWritebacks stats.Counter
	// PayloadEvictions counts metadata blocks (Kind != PayloadData) that
	// left the LLC: displaced by a fill, or flushed by name, page or ASID.
	PayloadEvictions stats.Counter

	// wbScratch backs AccessScratch results so the access engine does not
	// allocate a Writebacks slice per reference.
	wbScratch []addr.Name

	// payloads has one word per LLC way, indexed like the LLC's keys: the
	// payload of the metadata block the way holds. Only FillPayload puts
	// metadata in the LLC, and it writes the word and allocates the array
	// on first use. A way holding data keeps a stale word that nothing
	// reads.
	payloads []uint64
}

// NewHierarchy builds the hierarchy. It panics for a core count outside
// 1..MaxCores; the topology is fixed per experiment.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.NumCores <= 0 || cfg.NumCores > MaxCores {
		panic(fmt.Sprintf("cache: invalid core count %d (want 1 to %d)", cfg.NumCores, MaxCores))
	}
	h := &Hierarchy{cfg: cfg, llc: New(cfg.LLC)}
	h.holders = make([]uint64, len(h.llc.keys))
	for i := 0; i < cfg.NumCores; i++ {
		ic, dc, l2 := cfg.L1I, cfg.L1D, cfg.L2
		ic.Name = fmt.Sprintf("%s[%d]", ic.Name, i)
		dc.Name = fmt.Sprintf("%s[%d]", dc.Name, i)
		l2.Name = fmt.Sprintf("%s[%d]", l2.Name, i)
		h.l1i = append(h.l1i, New(ic))
		h.l1d = append(h.l1d, New(dc))
		h.l2 = append(h.l2, New(l2))
		h.llcWay = append(h.llcWay, make([]uint8, len(h.l2[i].keys)))
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

	// Miss in the private caches: look the LLC up, then snoop the remote
	// cores its holder mask names. That is the same as snooping first: a
	// snoop changes only remote private lines and the LLC line's state, an
	// LLC hit reads only the line's permission and moves its recency, and
	// on an LLC miss inclusion leaves no private copy to snoop.
	res.Latency += h.llc.Config().HitLatency
	llcState := Exclusive
	if kind == Write {
		llcState = Modified
	}
	li, hit, v, evicted := h.llc.accessFill(n, llcState, perm)
	if hit {
		res.HitLevel = 3
		remote := h.snoop(core, li, n, kind == Write)
		res.Perm = h.llc.meta[li].Perm
		h.fillPrivate(core, kind, n, li, remote, res.Perm)
		return res
	}
	if evicted {
		h.backInvalidate(v.Name, h.holders[li], &res)
		if v.Dirty {
			res.Writebacks = append(res.Writebacks, v.Name)
			h.MemWritebacks.Inc()
		}
	}
	h.holders[li] = 0

	// LLC miss: the caller performs delayed translation + DRAM, then the
	// block fills bottom-up. Record the fill now.
	res.LLCMiss = true
	res.Perm = perm
	h.fillPrivate(core, kind, n, li, Invalid, perm)
	return res
}

// invalidateRemote invalidates every remote copy of n (a write upgrade).
// core holds n privately, so by inclusion the LLC holds it too.
func (h *Hierarchy) invalidateRemote(core int, n addr.Name) {
	if li, ok := h.llc.findWay(n); ok {
		h.snoop(core, li, n, true)
	}
}

// snoop probes the private caches of the remote cores that hold n — those
// named by the holder mask of n's LLC way li, other than core. For writes
// it invalidates their copies; for reads it downgrades M/E copies to
// Shared. It returns Shared if any remote copy remains, else Invalid.
func (h *Hierarchy) snoop(core int, li uint64, n addr.Name, isWrite bool) State {
	remote := Invalid
	for m := h.holders[li] &^ (1 << core); m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		for _, pc := range []*Cache{h.l1d[c], h.l1i[c], h.l2[c]} {
			l := pc.Probe(n)
			if l == nil {
				continue
			}
			if isWrite {
				if dirty, _ := pc.Invalidate(n); dirty {
					// Dirty data is forwarded; it lives on in the LLC.
					h.llc.meta[li].State = Modified
				}
				h.CoherenceInvals.Inc()
			} else {
				if l.State == Modified || l.State == Exclusive {
					if pc.Downgrade(n) {
						h.llc.meta[li].State = Modified
					}
					h.CoherenceDowngrades.Inc()
				}
				remote = Shared
			}
		}
		if isWrite {
			h.holders[li] &^= 1 << c
		}
	}
	return remote
}

// fillPrivate installs n, which occupies LLC way li, into core's L2 and L1
// after an LLC hit or fill. Both missed n at the start of the access and
// nothing has filled them since, so neither looks for n again.
func (h *Hierarchy) fillPrivate(core int, kind AccessKind, n addr.Name, li uint64, remote State, perm addr.Perm) {
	st := Exclusive
	if remote == Shared {
		st = Shared
	}
	if kind == Write {
		st = Modified
	}
	i, v, evicted := h.l2[core].fillAbsent(n, st, perm)
	h.holdL2(core, i, li, v, evicted)
	h.fillL1(core, kind, n, st, perm)
	if kind == Write {
		// The LLC's copy is now stale relative to the private M copy; mark
		// the LLC line dirty so the eventual eviction writes back.
		h.llc.meta[li].State = Modified
	}
}

// holdL2 records that way i of core's L2 now holds the line of LLC way
// li, after pushing down the line the fill displaced, if evicted.
func (h *Hierarchy) holdL2(core int, i, li uint64, v Victim, evicted bool) {
	if evicted {
		h.handleL2Victim(core, v, h.llcWay[core][i])
	}
	h.llcWay[core][i] = uint8(li % h.llc.ways)
	h.holders[li] |= 1 << core
}

// fillL1 installs n, which missed in it at the start of the access, into
// the proper L1. A dirty L1 victim merges into its L2 copy, which
// inclusion guarantees.
func (h *Hierarchy) fillL1(core int, kind AccessKind, n addr.Name, st State, perm addr.Perm) {
	l1 := h.l1d[core]
	if kind == Fetch {
		l1 = h.l1i[core]
		st = Shared // instruction lines are never written
	}
	if _, v, ok := l1.fillAbsent(n, st, perm); ok && v.Dirty {
		if l := h.l2[core].Probe(v.Name); l != nil {
			l.State = Modified
		}
	}
}

// handleL2Victim pushes a private L2 victim, which sits in way lw of its
// LLC set, down: L1 copies are back-invalidated to preserve L2⊇L1
// inclusion, core leaves the LLC line's holders, and dirty data merges
// into the LLC line.
func (h *Hierarchy) handleL2Victim(core int, v Victim, lw uint8) {
	for _, pc := range []*Cache{h.l1d[core], h.l1i[core]} {
		if dirty, present := pc.Invalidate(v.Name); present {
			h.BackInvals.Inc()
			if dirty {
				v.Dirty = true
			}
		}
	}
	li := (v.Name.Line()&h.llc.setMask)*h.llc.ways + uint64(lw)
	h.holders[li] &^= 1 << core
	if v.Dirty {
		h.llc.meta[li].State = Modified
	}
}

// backInvalidate removes an LLC victim from the private caches of the
// cores in its holder mask (inclusive LLC), folding any dirtier private
// copy into the writeback. res may be nil when the caller has no use for
// the writeback name. A metadata victim counts as a payload eviction.
func (h *Hierarchy) backInvalidate(n addr.Name, holders uint64, res *AccessResult) {
	if n.Kind != addr.PayloadData {
		h.PayloadEvictions.Inc()
	}
	dirty := false
	for m := holders; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		// Inclusion (L2 ⊇ L1d ∪ L1i, maintained by handleL2Victim) lets
		// the L2 gate the L1s: a block absent from a core's L2 cannot be
		// in either of its L1s.
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
// remaps and on non-synonym -> synonym status changes. Each of the page's
// lines is looked up in the LLC and, when present, invalidated in the
// private caches of the cores that hold it. A page's lines fall in
// distinct sets of every cache, so visiting them line by line instead of
// cache by cache leaves every recency word as a per-cache flush would.
func (h *Hierarchy) FlushPage(page addr.Name) (flushed, dirty int) {
	n := firstLine(page)
	for l := 0; l < addr.PageSize/addr.LineSize; l++ {
		f, d := h.flushLine(n)
		flushed += f
		dirty += d
		n.Addr += addr.LineSize
	}
	h.MemWritebacks.Add(uint64(dirty))
	return flushed, dirty
}

// flushLine invalidates n in the LLC and in every private cache of the
// cores that hold it, returning how many copies it removed and how many
// of them were dirty. By inclusion a line absent from the LLC has no
// private copy. A metadata line counts as a payload eviction.
func (h *Hierarchy) flushLine(n addr.Name) (flushed, dirty int) {
	si, w, ok := h.llc.find(n)
	if !ok {
		return 0, 0
	}
	if n.Kind != addr.PayloadData {
		h.PayloadEvictions.Inc()
	}
	li := si*h.llc.ways + w
	for m := h.holders[li]; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		for _, pc := range []*Cache{h.l1d[c], h.l1i[c], h.l2[c]} {
			if d, present := pc.Invalidate(n); present {
				flushed++
				if d {
					dirty++
				}
			}
		}
	}
	h.holders[li] = 0
	if h.llc.meta[li].Dirty() {
		dirty++
	}
	h.llc.invalidateWay(si, w)
	return flushed + 1, dirty
}

// SetPagePerm updates permission bits on all cached copies of a page
// (Section III-D r/o content sharing), looking each line up in the LLC and
// updating the private copies of the cores that hold it.
func (h *Hierarchy) SetPagePerm(page addr.Name, perm addr.Perm) (updated int) {
	n := firstLine(page)
	for l := 0; l < addr.PageSize/addr.LineSize; l++ {
		if li, ok := h.llc.findWay(n); ok {
			for m := h.holders[li]; m != 0; m &= m - 1 {
				c := bits.TrailingZeros64(m)
				for _, pc := range []*Cache{h.l1d[c], h.l1i[c], h.l2[c]} {
					if line := pc.lookup(n); line != nil {
						line.Perm = perm
						updated++
					}
				}
			}
			h.llc.meta[li].Perm = perm
			updated++
		}
		n.Addr += addr.LineSize
	}
	return updated
}

// FlushASID removes every line belonging to the address space (used when an
// address space is destroyed and its ASID recycled). Metadata blocks are
// virtually named, so the match catches them too, and each one the LLC
// loses counts as a payload eviction. It scans every way of every cache,
// whose order decides the recency words, so it does not go through the
// holder masks; it clears the masks of the LLC ways it frees.
func (h *Hierarchy) FlushASID(asid addr.ASID) (flushed int) {
	match := func(n addr.Name) bool { return !n.Synonym && n.ASID == asid }
	for c := 0; c < h.cfg.NumCores; c++ {
		for _, pc := range []*Cache{h.l1d[c], h.l1i[c], h.l2[c]} {
			f, _ := pc.FlushMatching(match)
			flushed += f
		}
	}
	f, _ := h.llc.FlushMatching(func(n addr.Name) bool {
		ok := match(n)
		if ok && n.Kind != addr.PayloadData {
			h.PayloadEvictions.Inc()
		}
		return ok
	})
	for i, k := range h.llc.keys {
		if k == 0 {
			h.holders[i] = 0
		}
	}
	return flushed + f
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
	return h.checkHolders()
}

// checkHolders verifies the coherence directory exactly: each L2 way's
// back-pointer names the LLC way of its line, and each LLC way's holder
// mask names exactly the cores whose L2 holds its line (none for an
// invalid way). A missing bit would hide a copy from snoops and
// back-invalidations; an extra one changes no result, so only this check
// sees it. It needs inclusion, which CheckInvariants verifies first.
func (h *Hierarchy) checkHolders() error {
	want := make([]uint64, len(h.holders))
	for c, l2 := range h.l2 {
		for i, k := range l2.keys {
			if k == 0 {
				continue
			}
			n := addr.NameFromKey(k &^ keyValidBit)
			si, w, _ := h.llc.find(n)
			if lw := uint64(h.llcWay[c][i]); lw != w {
				return fmt.Errorf("cache: %v in core %d's L2 points at LLC way %d, but it is in way %d", n, c, lw, w)
			}
			want[si*h.llc.ways+w] |= 1 << c
		}
	}
	for i, m := range h.holders {
		if m != want[i] {
			return fmt.Errorf("cache: LLC set %d way %d has holder mask %#x, but the L2s holding its line are %#x",
				uint64(i)/h.llc.ways, uint64(i)%h.llc.ways, m, want[i])
		}
	}
	return nil
}
