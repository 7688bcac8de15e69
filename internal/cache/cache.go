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
	"math/bits"

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
// a way carries lives in the Cache's packed arrays — the tag key it is
// matched by (which encodes the full block name, reconstructed on demand
// via addr.NameFromKey) and its place in its set's recency word.
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
	// keys holds each way's one-word tag key, set si at
	// keys[si*ways : (si+1)*ways]. A valid way stores Name.Key() with
	// keyValidBit set (bit 1 is always clear in a key: addresses are
	// line-aligned, bit 0 is the synonym bit, and bits 2..3 carry the
	// payload kind); invalid ways store 0, so one compare confirms both
	// tag match and validity, and the full block name is recovered with
	// addr.NameFromKey.
	keys []uint64
	// recency holds one word per set: the set's way numbers as 4-bit
	// nibbles, most recently used in the low nibble, least recently used
	// at bit offset top; nibbles above the set's ways stay zero. Every
	// invalid way sits behind every valid one, so the last nibble is
	// always the fill victim: a free way while the set has one, the least
	// recently used line otherwise.
	recency []uint64
	// meta holds each way's two-byte coherence state and permission; set
	// si occupies meta[si*ways : (si+1)*ways], like keys.
	meta     []Line
	ways     uint64
	top      uint   // bit offset of the least recently used nibble
	used     uint64 // mask of the recency word's nibbles that hold ways
	Stats    stats.HitMiss
	Evicted  stats.Counter // lines evicted for capacity/conflict
	WriteBks stats.Counter // dirty evictions
}

// maxWays bounds the associativity: a recency word holds 16 nibbles.
const maxWays = 16

// Validate reports why the geometry cannot be built, or nil: the size
// must hold at least one line, the ways must divide the line count and
// be at most 16, and the set count must be a power of two.
func (cfg Config) Validate() error {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		return fmt.Errorf("cache %s: invalid size/ways %d/%d", cfg.Name, cfg.SizeBytes, cfg.Ways)
	}
	if cfg.Ways > maxWays {
		return fmt.Errorf("cache %s: %d ways exceed the maximum of %d", cfg.Name, cfg.Ways, maxWays)
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
	ways := uint64(cfg.Ways)
	c := &Cache{
		cfg: cfg, setMask: uint64(nsets - 1),
		keys:    make([]uint64, nsets*cfg.Ways),
		recency: make([]uint64, nsets),
		meta:    make([]Line, nsets*cfg.Ways),
		ways:    ways,
		top:     uint(4 * (ways - 1)),
		used:    ^uint64(0) >> (64 - 4*ways),
	}
	// Way 0 starts least recent, so a cold set fills its ways in order.
	var r uint64
	for w := uint64(0); w < ways; w++ {
		r = r<<4 | w
	}
	for si := range c.recency {
		c.recency[si] = r
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.recency) }

// nameAt rebuilds the block name stored in way i from its packed key.
func (c *Cache) nameAt(i uint64) addr.Name {
	return addr.NameFromKey(c.keys[i] &^ keyValidBit)
}

// keyValidBit marks an occupied way in the packed key mirror. Name.Key()
// never sets bit 1 (addresses are line-aligned, bit 0 is the synonym bit,
// bits 2..3 hold the payload kind), so key|keyValidBit is nonzero and
// collides with no other name.
const keyValidBit = 1 << 1

// nibbleOnes has a one in every nibble; it broadcasts a way number across a
// recency word.
const nibbleOnes = 0x1111111111111111

// offset returns the bit offset of way w's nibble in recency word r. The
// nibble-wise subtraction flags the lowest nibble equal to w exactly
// (a borrow only starts at a match), and w occurs once among the used
// nibbles, which lie below the zero padding.
func offset(r, w uint64) uint {
	x := r ^ w*nibbleOnes
	return uint(bits.TrailingZeros64((x-nibbleOnes)&^x&(nibbleOnes<<3))) &^ 3
}

// promote moves way w to the most recent end of recency word r.
func promote(r, w uint64) uint64 {
	keep := ^(uint64(1)<<(offset(r, w)+4) - 1)
	return r&keep | (r<<4)&^keep | w
}

// demote moves way w to the least recent end of r, at bit offset top.
func demote(r, w uint64, top uint) uint64 {
	low := uint64(1)<<offset(r, w) - 1
	return r&low | (r>>4)&^low | w<<top
}

// find locates n's way, comparing the set's keys in way order: it returns
// the set index, the way, and whether a valid match exists.
func (c *Cache) find(n addr.Name) (si, w uint64, ok bool) {
	k := n.Key() | keyValidBit
	si = n.Line() & c.setMask
	base := si * c.ways
	keys := c.keys[base : base+c.ways]
	for i := range keys {
		if keys[i] == k {
			return si, uint64(i), true
		}
	}
	return si, 0, false
}

// lookup returns the way holding n, or nil.
func (c *Cache) lookup(n addr.Name) *Line {
	if si, w, ok := c.find(n); ok {
		return &c.meta[si*c.ways+w]
	}
	return nil
}

// Probe reports whether n is present, without touching recency or
// statistics. Coherence snoops use Probe.
func (c *Cache) Probe(n addr.Name) *Line { return c.lookup(n) }

// Victim describes a line displaced by a fill.
type Victim struct {
	Name  addr.Name
	Dirty bool
}

// hit makes way w of set si the most recent and returns its line.
func (c *Cache) hit(si, w uint64) *Line {
	c.recency[si] = promote(c.recency[si], w)
	return &c.meta[si*c.ways+w]
}

// Access looks up n, recording hit/miss statistics and updating recency.
// On a hit it returns the line, on a miss nil. It does not allocate;
// callers Fill after resolving the miss so fill ordering matches the
// hierarchy.
func (c *Cache) Access(n addr.Name) *Line {
	si, w, ok := c.find(n)
	c.Stats.Record(ok)
	if !ok {
		return nil
	}
	return c.hit(si, w)
}

// install puts n, which the caller knows is absent from set si, in the
// set's last way and makes it the most recent. It returns the way's
// index i in keys and meta, and the line the way held if it was valid.
func (c *Cache) install(si uint64, n addr.Name, st State, perm addr.Perm) (i uint64, out Victim, evicted bool) {
	r := c.recency[si]
	w := r >> c.top & 0xF
	c.recency[si] = r<<4&c.used | w
	i = si*c.ways + w
	if vk := c.keys[i]; vk != 0 {
		out = Victim{Name: addr.NameFromKey(vk &^ keyValidBit), Dirty: c.meta[i].Dirty()}
		evicted = true
		c.Evicted.Inc()
		if out.Dirty {
			c.WriteBks.Inc()
		}
	}
	c.meta[i] = Line{State: st, Perm: perm}
	c.keys[i] = n.Key() | keyValidBit
	return i, out, evicted
}

// Fill allocates n with the given state and permission, returning any
// displaced victim. Filling a name already present just updates it.
func (c *Cache) Fill(n addr.Name, st State, perm addr.Perm) (Victim, bool) {
	_, _, v, evicted := c.fill(n, st, perm)
	return v, evicted
}

// fill is Fill that also returns n's way index and whether n was already
// present (and so only updated).
func (c *Cache) fill(n addr.Name, st State, perm addr.Perm) (i uint64, present bool, v Victim, evicted bool) {
	si, w, ok := c.find(n)
	if ok {
		*c.hit(si, w) = Line{State: st, Perm: perm}
		return si*c.ways + w, true, Victim{}, false
	}
	i, v, evicted = c.install(si, n, st, perm)
	return i, false, v, evicted
}

// fillAbsent is Fill for a name the caller knows is absent: it has just
// missed in c, and nothing was filled into c since. It installs n without
// looking for it again and returns its way index.
func (c *Cache) fillAbsent(n addr.Name, st State, perm addr.Perm) (uint64, Victim, bool) {
	return c.install(n.Line()&c.setMask, n, st, perm)
}

// AccessFill is Access immediately followed, on a miss, by Fill: one
// lookup resolves the hit, the statistics and the recency update, and a
// miss installs n in the set's last way without looking again. On a hit
// it returns the line and installs nothing.
func (c *Cache) AccessFill(n addr.Name, st State, perm addr.Perm) (l *Line, v Victim, evicted bool) {
	i, hit, v, evicted := c.accessFill(n, st, perm)
	if hit {
		return &c.meta[i], Victim{}, false
	}
	return nil, v, evicted
}

// accessFill is AccessFill returning n's way index, whether it hit, and
// on a miss the victim of the install.
func (c *Cache) accessFill(n addr.Name, st State, perm addr.Perm) (i uint64, hit bool, v Victim, evicted bool) {
	si, w, ok := c.find(n)
	c.Stats.Record(ok)
	if ok {
		c.hit(si, w)
		return si*c.ways + w, true, Victim{}, false
	}
	i, v, evicted = c.install(si, n, st, perm)
	return i, false, v, evicted
}

// accessWay is Access returning n's way index instead of its line.
func (c *Cache) accessWay(n addr.Name) (i uint64, ok bool) {
	si, w, ok := c.find(n)
	c.Stats.Record(ok)
	if !ok {
		return 0, false
	}
	c.hit(si, w)
	return si*c.ways + w, true
}

// findWay returns n's way index, and whether n is present, without
// touching recency or statistics.
func (c *Cache) findWay(n addr.Name) (i uint64, ok bool) {
	si, w, ok := c.find(n)
	return si*c.ways + w, ok
}

// invalidateWay empties way w of set si and moves it to the set's least
// recent end, behind every valid way.
func (c *Cache) invalidateWay(si, w uint64) {
	i := si*c.ways + w
	c.meta[i] = Line{}
	c.keys[i] = 0
	c.recency[si] = demote(c.recency[si], w, c.top)
}

// Invalidate removes n if present, returning whether it was dirty.
func (c *Cache) Invalidate(n addr.Name) (wasDirty, wasPresent bool) {
	si, w, ok := c.find(n)
	if !ok {
		return false, false
	}
	wasDirty = c.meta[si*c.ways+w].Dirty()
	c.invalidateWay(si, w)
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
			c.invalidateWay(uint64(i)/c.ways, uint64(i)%c.ways)
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

// checkSets verifies every set's recency word: it holds each of the
// set's ways exactly once, with zero padding above them, and every
// invalid way comes after every valid one.
func (c *Cache) checkSets() error {
	for si, r := range c.recency {
		if r&^c.used != 0 {
			return fmt.Errorf("cache %s: set %d: recency word %#x sets nibbles past its %d ways", c.cfg.Name, si, r, c.ways)
		}
		var seen uint32
		free := false
		for p := uint64(0); p < c.ways; p++ {
			w := r >> (4 * p) & 0xF
			if w >= c.ways || seen&(1<<w) != 0 {
				return fmt.Errorf("cache %s: set %d: recency word %#x does not hold each of its %d ways once", c.cfg.Name, si, r, c.ways)
			}
			seen |= 1 << w
			if c.keys[uint64(si)*c.ways+w] == 0 {
				free = true
			} else if free {
				return fmt.Errorf("cache %s: set %d: recency word %#x puts valid way %d after an invalid way", c.cfg.Name, si, r, w)
			}
		}
	}
	return nil
}
