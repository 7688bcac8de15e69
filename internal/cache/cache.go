// Package cache models the on-chip cache hierarchy of the hybrid virtual
// caching design: set-associative write-back caches whose tags are extended
// with a synonym bit, a 16-bit ASID, and 2 permission bits (Figure 2 of the
// paper), so a block may be named either by physical address (synonym
// blocks) or by ASID+VA (non-synonym blocks). Coherence between private
// caches uses the same unified names, which is what removes the synonym
// problem: every physical block has exactly one name in the hierarchy.
package cache

import (
	"fmt"

	"hybridvc/internal/addr"
	"hybridvc/internal/stats"
)

// State is a MESI coherence state for lines in private caches.
type State uint8

const (
	// Invalid marks an empty or invalidated way.
	Invalid State = iota
	// Shared marks a clean copy that other caches may also hold.
	Shared
	// Exclusive marks a clean copy no other cache holds.
	Exclusive
	// Modified marks a dirty copy no other cache holds.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Config describes one cache level.
type Config struct {
	// Name labels the cache in statistics output.
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// HitLatency is the access latency in cycles.
	HitLatency uint64
}

// Line is one cache way's coherence bookkeeping: the MESI state and the
// cached permission bits of the extended tag of Figure 2. Everything else
// a way carries lives in the Cache's packed structure-of-arrays — the tag
// key it is matched by (which encodes the full block name, reconstructed
// on demand via addr.NameFromKey) and its LRU stamp — so the hot set scans
// and fills touch one densely packed word per way plus these two bytes.
type Line struct {
	State State
	Perm  addr.Perm
}

// Dirty reports whether the line holds modified data.
func (l *Line) Dirty() bool { return l.State == Modified }

// Cache is one set-associative write-back cache level.
type Cache struct {
	cfg     Config
	setMask uint64
	// keys holds each way's one-word tag key packed contiguously, so the
	// hot set scans compare one contiguous word per way instead of
	// striding through per-way structs. A valid way stores Name.Key()
	// with keyValidBit set (bit 1 is always clear in a key: addresses are
	// line-aligned, bit 0 is the synonym bit, and bits 2..3 carry the
	// payload kind); invalid ways store 0,
	// so a single compare per way resolves both tag match and validity,
	// and the full block name is recovered with addr.NameFromKey.
	keys []uint64
	// lrus holds each way's LRU stamp packed the same way; zero means the
	// way is invalid (ticks start at 1), which lets find and the Fill
	// victim scan run entirely over the packed arrays.
	lrus []uint64
	// meta holds each way's two-byte coherence state and permission; set
	// si occupies meta[si*ways : (si+1)*ways], like keys and lrus.
	meta     []Line
	ways     uint64
	tick     uint64
	Stats    stats.HitMiss
	Evicted  stats.Counter // lines evicted for capacity/conflict
	WriteBks stats.Counter // dirty evictions
}

// Validate reports why the geometry cannot be built, or nil: the size
// must hold at least one line, the ways must divide the line count, and
// the set count must be a power of two.
func (cfg Config) Validate() error {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		return fmt.Errorf("cache %s: invalid size/ways %d/%d", cfg.Name, cfg.SizeBytes, cfg.Ways)
	}
	lines := cfg.SizeBytes / addr.LineSize
	if lines == 0 {
		return fmt.Errorf("cache %s: %d bytes hold no %d-byte line", cfg.Name, cfg.SizeBytes, addr.LineSize)
	}
	if lines%cfg.Ways != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible by %d ways", cfg.Name, lines, cfg.Ways)
	}
	if nsets := lines / cfg.Ways; nsets&(nsets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", cfg.Name, nsets)
	}
	return nil
}

// New creates a cache. It panics on a geometry Validate rejects; cache
// shapes come from fixed experiment configurations.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	nsets := cfg.SizeBytes / addr.LineSize / cfg.Ways
	return &Cache{
		cfg: cfg, setMask: uint64(nsets - 1),
		keys: make([]uint64, nsets*cfg.Ways),
		lrus: make([]uint64, nsets*cfg.Ways),
		meta: make([]Line, nsets*cfg.Ways),
		ways: uint64(cfg.Ways),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.keys) / int(c.ways) }

// nameAt rebuilds the block name stored in way i from its packed key.
func (c *Cache) nameAt(i uint64) addr.Name {
	return addr.NameFromKey(c.keys[i] &^ keyValidBit)
}

// keyValidBit marks an occupied way in the packed key mirror. Name.Key()
// never sets bit 1 (addresses are line-aligned, bit 0 is the synonym bit,
// bits 2..3 hold the payload kind), so key|keyValidBit is nonzero and
// collides with no other name.
const keyValidBit = 1 << 1

// find locates n's way, scanning the packed key mirror: it returns the set
// index, the way, and whether a valid match exists.
func (c *Cache) find(n addr.Name) (si uint64, w int, ok bool) {
	k := n.Key() | keyValidBit
	si = n.Line() & c.setMask
	base := si * c.ways
	keys := c.keys[base : base+c.ways]
	for i := range keys {
		if keys[i] == k {
			return si, i, true
		}
	}
	return si, 0, false
}

// lookup returns the way holding n, or nil.
func (c *Cache) lookup(n addr.Name) *Line {
	if si, w, ok := c.find(n); ok {
		return &c.meta[si*c.ways+uint64(w)]
	}
	return nil
}

// Probe reports whether n is present, without touching LRU or statistics.
// Coherence snoops use Probe.
func (c *Cache) Probe(n addr.Name) *Line { return c.lookup(n) }

// Victim describes a line displaced by a fill.
type Victim struct {
	Name  addr.Name
	Dirty bool
}

// Access looks up n, recording hit/miss statistics and updating LRU.
// On a hit it returns (line, nil-victim-ok). It does not allocate; callers
// Fill after resolving the miss so fill ordering matches the hierarchy.
func (c *Cache) Access(n addr.Name) *Line {
	c.tick++
	si, w, ok := c.find(n)
	c.Stats.Record(ok)
	if !ok {
		return nil
	}
	c.lrus[si*c.ways+uint64(w)] = c.tick
	return &c.meta[si*c.ways+uint64(w)]
}

// Fill allocates n with the given state and permission, returning any
// displaced victim. Filling a name already present just updates it.
func (c *Cache) Fill(n addr.Name, st State, perm addr.Perm) (Victim, bool) {
	c.tick++
	k := n.Key() | keyValidBit
	base := (n.Line() & c.setMask) * c.ways
	keys := c.keys[base : base+c.ways]
	lrus := c.lrus[base : base+c.ways]
	// One pass resolves both questions: an existing way for n (update in
	// place) and, failing that, the victim — the first strict minimum
	// over the packed LRU stamps, which is the first free way when one
	// exists (invalid ways carry stamp 0) and the LRU way otherwise. The
	// value-tracking minimum lets the compiler emit conditional moves
	// instead of a data-dependent branch per way.
	victim, minLru := 0, ^uint64(0)
	hit := -1
	for i := range keys {
		if keys[i] == k {
			hit = i
			break
		}
		if lv := lrus[i]; lv < minLru {
			victim, minLru = i, lv
		}
	}
	if hit >= 0 {
		c.meta[base+uint64(hit)] = Line{State: st, Perm: perm}
		lrus[hit] = c.tick
		return Victim{}, false
	}
	var out Victim
	evicted := false
	if vk := keys[victim]; vk != 0 {
		out = Victim{Name: addr.NameFromKey(vk &^ keyValidBit), Dirty: c.meta[base+uint64(victim)].Dirty()}
		evicted = true
		c.Evicted.Inc()
		if out.Dirty {
			c.WriteBks.Inc()
		}
	}
	c.meta[base+uint64(victim)] = Line{State: st, Perm: perm}
	keys[victim] = k
	lrus[victim] = c.tick
	return out, evicted
}

// AccessFill is Access immediately followed, on a miss, by Fill — one set
// scan resolves lookup, statistics, LRU, victim choice, and install. It is
// byte-identical to the separate Access-then-Fill pair whenever nothing
// touches the cache between the two calls (the LLC lookup path and the
// index cache qualify; the private-cache fills do not, because a back-
// invalidation may change the victim between their Access and Fill). On a
// hit it returns the line and installs nothing.
func (c *Cache) AccessFill(n addr.Name, st State, perm addr.Perm) (l *Line, v Victim, evicted bool) {
	c.tick++
	k := n.Key() | keyValidBit
	base := (n.Line() & c.setMask) * c.ways
	keys := c.keys[base : base+c.ways]
	lrus := c.lrus[base : base+c.ways]
	victim, minLru := 0, ^uint64(0)
	hit := -1
	for i := range keys {
		if keys[i] == k {
			hit = i
			break
		}
		if lv := lrus[i]; lv < minLru {
			victim, minLru = i, lv
		}
	}
	if hit >= 0 {
		c.Stats.Record(true)
		lrus[hit] = c.tick
		return &c.meta[base+uint64(hit)], Victim{}, false
	}
	c.Stats.Record(false)
	c.tick++ // the fill's own tick, matching the separate-call sequence
	if vk := keys[victim]; vk != 0 {
		v = Victim{Name: addr.NameFromKey(vk &^ keyValidBit), Dirty: c.meta[base+uint64(victim)].Dirty()}
		evicted = true
		c.Evicted.Inc()
		if v.Dirty {
			c.WriteBks.Inc()
		}
	}
	c.meta[base+uint64(victim)] = Line{State: st, Perm: perm}
	keys[victim] = k
	lrus[victim] = c.tick
	return nil, v, evicted
}

// Invalidate removes n if present, returning whether it was dirty.
func (c *Cache) Invalidate(n addr.Name) (wasDirty, wasPresent bool) {
	si, w, ok := c.find(n)
	if !ok {
		return false, false
	}
	i := si*c.ways + uint64(w)
	wasDirty = c.meta[i].Dirty()
	c.meta[i] = Line{}
	c.keys[i] = 0
	c.lrus[i] = 0
	return wasDirty, true
}

// Downgrade moves n to Shared (after a remote read snoop), returning whether
// the line was dirty and had to supply data.
func (c *Cache) Downgrade(n addr.Name) (wasDirty bool) {
	if l := c.lookup(n); l != nil {
		wasDirty = l.Dirty()
		l.State = Shared
	}
	return wasDirty
}

// FlushMatching invalidates every line for which match returns true and
// returns the number invalidated and how many were dirty. It visits every
// way, so it serves whole-address-space flushes (FlushASID); a page flush
// looks its lines up by name instead (FlushPage).
func (c *Cache) FlushMatching(match func(addr.Name) bool) (flushed, dirty int) {
	for i := range c.keys {
		if c.keys[i] != 0 && match(c.nameAt(uint64(i))) {
			if c.meta[i].Dirty() {
				dirty++
			}
			c.meta[i] = Line{}
			c.keys[i] = 0
			c.lrus[i] = 0
			flushed++
		}
	}
	return flushed, dirty
}

// firstLine returns the name of the first line of the page that a
// representative name (ASID+virtual page for non-synonym, frame for
// synonym) identifies: its address aligned down to the page, with its
// kind, ASID and synonym bit. The page's other lines follow at LineSize
// steps; they are exactly the names for which SamePage(page) holds.
func firstLine(page addr.Name) addr.Name {
	page.Addr &^= addr.PageSize - 1
	return page
}

// FlushPage invalidates all lines of a page identified by a representative
// name, looking each of the page's line names up in its own set.
func (c *Cache) FlushPage(page addr.Name) (flushed, dirty int) {
	n := firstLine(page)
	for l := 0; l < addr.PageSize/addr.LineSize; l++ {
		if d, ok := c.Invalidate(n); ok {
			flushed++
			if d {
				dirty++
			}
		}
		n.Addr += addr.LineSize
	}
	return flushed, dirty
}

// SetPagePerm updates the permission bits of every cached line of a page —
// the paper's mechanism for r/o content sharing (Section III-D): permission
// changes update cached copies rather than flushing them.
func (c *Cache) SetPagePerm(page addr.Name, perm addr.Perm) (updated int) {
	n := firstLine(page)
	for l := 0; l < addr.PageSize/addr.LineSize; l++ {
		if line := c.lookup(n); line != nil {
			line.Perm = perm
			updated++
		}
		n.Addr += addr.LineSize
	}
	return updated
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.keys {
		if c.keys[i] != 0 {
			n++
		}
	}
	return n
}

// ForEachLine calls fn for every valid line's name and coherence meta
// (used by invariant checks).
func (c *Cache) ForEachLine(fn func(addr.Name, *Line)) {
	for i := range c.keys {
		if c.keys[i] != 0 {
			fn(c.nameAt(uint64(i)), &c.meta[i])
		}
	}
}
