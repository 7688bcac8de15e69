// Package tlb models translation look-aside buffers: the conventional
// two-level TLB of the baseline (Table IV: 64-entry 4-way L1 backed by a
// 1024-entry 8-way L2), the small synonym TLB that serves synonym
// candidates in the hybrid design, and the large delayed TLBs that perform
// page-granularity translation after LLC misses.
//
// Entries record whether the page is truly a synonym: when the synonym
// filter false-positives on a non-synonym page, the page walk installs a
// non-synonym entry whose NonSynonym flag quickly corrects future accesses
// (Section III-A of the paper).
package tlb

import (
	"fmt"

	"hybridvc/internal/addr"
)

// Entry is one TLB translation.
type Entry struct {
	Valid bool
	ASID  addr.ASID
	VPN   uint64 // virtual page number
	PFN   uint64 // physical frame number
	Perm  addr.Perm
	// NonSynonym marks an entry installed to correct a synonym-filter
	// false positive: the page is private, so the access should proceed
	// with ASID+VA rather than the physical address.
	NonSynonym bool
	// Shared carries the page's synonym (r/w shared) status from the page
	// tables, so walks can report hypervisor- or OS-induced sharing.
	Shared bool
	lru    uint64
}

// Config describes a TLB.
type Config struct {
	Name string
	// Entries is the total entry count.
	Entries int
	// Ways is the associativity; Ways == Entries means fully associative.
	Ways int
	// Latency is the lookup latency in cycles.
	Latency uint64
}

// TLB is one set-associative TLB level.
type TLB struct {
	cfg     Config
	sets    [][]Entry
	setMask uint64
	tick    uint64
}

// Validate reports why the geometry cannot be built, or nil: positive
// entries and ways, ways dividing the entries, and a power-of-two set count.
func (cfg Config) Validate() error {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		return fmt.Errorf("tlb %s: invalid geometry %d entries / %d ways", cfg.Name, cfg.Entries, cfg.Ways)
	}
	if nsets := cfg.Entries / cfg.Ways; nsets&(nsets-1) != 0 {
		return fmt.Errorf("tlb %s: set count %d not a power of two", cfg.Name, nsets)
	}
	return nil
}

// New creates a TLB; it panics on invalid geometry (experiment
// configurations are fixed, so geometry errors are programming errors).
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	nsets := cfg.Entries / cfg.Ways
	sets := make([][]Entry, nsets)
	backing := make([]Entry, cfg.Entries)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &TLB{cfg: cfg, sets: sets, setMask: uint64(nsets - 1)}
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

func (t *TLB) set(vpn uint64) []Entry { return t.sets[vpn&t.setMask] }

// Lookup searches for (asid, vpn), updating LRU.
func (t *TLB) Lookup(asid addr.ASID, vpn uint64) (*Entry, bool) {
	t.tick++
	set := t.set(vpn)
	for i := range set {
		if set[i].Valid && set[i].ASID == asid && set[i].VPN == vpn {
			set[i].lru = t.tick
			return &set[i], true
		}
	}
	return nil, false
}

// Probe searches without touching LRU.
func (t *TLB) Probe(asid addr.ASID, vpn uint64) (*Entry, bool) {
	set := t.set(vpn)
	for i := range set {
		if set[i].Valid && set[i].ASID == asid && set[i].VPN == vpn {
			return &set[i], true
		}
	}
	return nil, false
}

// Insert installs an entry, evicting the set's LRU victim if needed.
// The returned victim is valid only when evicted is true.
func (t *TLB) Insert(e Entry) (victim Entry, evicted bool) {
	t.tick++
	e.Valid = true
	e.lru = t.tick
	set := t.set(e.VPN)
	// Replace an existing mapping for the same page in place.
	for i := range set {
		if set[i].Valid && set[i].ASID == e.ASID && set[i].VPN == e.VPN {
			set[i] = e
			return Entry{}, false
		}
	}
	slot := &set[0]
	for i := range set {
		if !set[i].Valid {
			slot = &set[i]
			break
		}
		if set[i].lru < slot.lru {
			slot = &set[i]
		}
	}
	if slot.Valid {
		victim, evicted = *slot, true
	}
	*slot = e
	return victim, evicted
}

// Shootdown invalidates the translation for (asid, vpn), returning whether
// an entry was present. TLB shootdowns accompany every page-table update.
func (t *TLB) Shootdown(asid addr.ASID, vpn uint64) bool {
	set := t.set(vpn)
	for i := range set {
		if set[i].Valid && set[i].ASID == asid && set[i].VPN == vpn {
			set[i] = Entry{}
			return true
		}
	}
	return false
}

// FlushASID invalidates all translations of one address space.
func (t *TLB) FlushASID(asid addr.ASID) (flushed int) {
	for si := range t.sets {
		for wi := range t.sets[si] {
			if t.sets[si][wi].Valid && t.sets[si][wi].ASID == asid {
				t.sets[si][wi] = Entry{}
				flushed++
			}
		}
	}
	return flushed
}

// FlushAll empties the TLB.
func (t *TLB) FlushAll() {
	for si := range t.sets {
		for wi := range t.sets[si] {
			t.sets[si][wi] = Entry{}
		}
	}
}

// ForEach calls fn for every valid entry (used by invariant checks that
// compare cached translations against the authoritative page tables).
func (t *TLB) ForEach(fn func(Entry)) {
	for si := range t.sets {
		for wi := range t.sets[si] {
			if t.sets[si][wi].Valid {
				fn(t.sets[si][wi])
			}
		}
	}
}

// Occupancy returns the number of valid entries.
func (t *TLB) Occupancy() int {
	n := 0
	for si := range t.sets {
		for wi := range t.sets[si] {
			if t.sets[si][wi].Valid {
				n++
			}
		}
	}
	return n
}

// TwoLevel is the conventional baseline TLB organization: a small fast L1
// backed by a larger L2, with L1 misses filled from L2 hits.
type TwoLevel struct {
	L1 *TLB
	L2 *TLB
}

// DefaultTwoLevelConfig returns the paper's Haswell-like baseline:
// 64-entry 4-way 1-cycle L1 and 1024-entry 8-way 7-cycle L2.
func DefaultTwoLevelConfig() (l1, l2 Config) {
	l1 = Config{Name: "dtlb-l1", Entries: 64, Ways: 4, Latency: 1}
	l2 = Config{Name: "dtlb-l2", Entries: 1024, Ways: 8, Latency: 7}
	return l1, l2
}

// NewTwoLevel builds a two-level TLB.
func NewTwoLevel(l1, l2 Config) *TwoLevel {
	return &TwoLevel{L1: New(l1), L2: New(l2)}
}

// Result reports a two-level lookup outcome.
type Result struct {
	Entry *Entry
	// Level is 1 or 2 for a hit, 0 for a miss in both levels.
	Level int
	// Latency is the cycles consumed by the lookup(s).
	Latency uint64
}

// Lookup searches L1 then L2; an L2 hit refills L1.
func (tl *TwoLevel) Lookup(asid addr.ASID, vpn uint64) Result {
	res := Result{Latency: tl.L1.Config().Latency}
	if e, ok := tl.L1.Lookup(asid, vpn); ok {
		res.Entry, res.Level = e, 1
		return res
	}
	res.Latency += tl.L2.Config().Latency
	if e, ok := tl.L2.Lookup(asid, vpn); ok {
		cp := *e
		tl.L1.Insert(cp)
		res.Entry, res.Level = e, 2
		return res
	}
	return res
}

// Insert installs a walked translation into both levels.
func (tl *TwoLevel) Insert(e Entry) {
	tl.L2.Insert(e)
	tl.L1.Insert(e)
}

// Shootdown invalidates (asid, vpn) in both levels.
func (tl *TwoLevel) Shootdown(asid addr.ASID, vpn uint64) {
	tl.L1.Shootdown(asid, vpn)
	tl.L2.Shootdown(asid, vpn)
}

// FlushASID invalidates an address space in both levels.
func (tl *TwoLevel) FlushASID(asid addr.ASID) {
	tl.L1.FlushASID(asid)
	tl.L2.FlushASID(asid)
}
