package fault

import (
	"errors"
	"fmt"
	"sort"

	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/pipeline"
	"hybridvc/internal/tlb"
)

// NamedTLB is a translation structure the Checker audits against the
// authoritative page tables.
type NamedTLB struct {
	Name string
	T    *tlb.TLB
}

// Recon is one organization-specific counter reconciliation pair: Stat
// reads the memory system's own counter and Event derives the same
// quantity from the pipeline counts. The two must agree at every check
// point.
type Recon struct {
	Label string
	Stat  func() uint64
	Event func(c *pipeline.Counts) uint64
}

// CheckerConfig wires a Checker to one system.
type CheckerConfig struct {
	// Mem is the memory system under audit.
	Mem core.MemSystem
	// Kernel owns the address spaces whose names appear in the hierarchy
	// (the guest kernel in virtualized organizations).
	Kernel *osmodel.Kernel
	// TranslateGPA resolves guest-physical to machine addresses in
	// virtualized organizations, where page tables map to guest-physical
	// space but synonym blocks are named by machine address.
	TranslateGPA func(addr.GPA) (addr.PA, bool)
	// SplitL1 marks OVC-style organizations: the L1 is virtual and the
	// outer levels physical, so inclusion does not hold across the naming
	// boundary and a filter false positive legitimately caches a block
	// physically alongside a virtual copy. The checker then audits only
	// the virtual L1 lines.
	SplitL1 bool
	// AllowSharedVirtual permits r/w shared pages under virtual names:
	// filter-bypass (Enigma-style) organizations cache everything
	// virtually and tolerate multi-name sharing by construction.
	AllowSharedVirtual bool
	// NestedWalks marks virtualized organizations whose 2D walkers fetch
	// nested tables outside the shared walk path: their counted walk
	// steps legitimately exceed the base counter, so that pair is not
	// reconciled (matching the repo-wide count invariants).
	NestedWalks bool
	// TLBs lists translation structures to audit against the page tables.
	TLBs []NamedTLB
	// PayloadCoherence audits one cached metadata block (typed-payload
	// line) against the authoritative OS structures; organizations that
	// park translations or synonym records in the caches supply it. Nil
	// when the organization caches no metadata.
	PayloadCoherence func(n addr.Name, payload uint64) error
	// Extra adds organization-specific reconciliation pairs (for example
	// the hybrid MMU's false-positive counter against
	// Counts.FalsePositives).
	Extra []Recon
}

// Checker verifies the design's structural invariants at runtime:
//
//  1. One name per block — every physical line address is cached under at
//     most one name across the hierarchy, except the legitimate
//     multi-name cases the paper carves out (read-only content sharing,
//     Section III-D; r/w sharing under filter bypass; OVC's split-L1
//     physical duplicates).
//  2. No synonym-filter false negatives — every page of every live
//     synonym range classifies as a candidate.
//  3. Translation coherence — every valid TLB entry agrees with the
//     authoritative page tables (mapping exists, frame and shared flag
//     match).
//  4. Count reconciliation — the pipeline counts match the memory
//     system's own counters, so neither drops or double counts under
//     faults.
//  5. The hierarchy's own invariants: every cache's set state, and MESI
//     and inclusion (only the set state for SplitL1, where inclusion
//     across the naming boundary does not hold).
//
// Both sides of the reconciliation count from the system's
// construction, so a Checker built mid-run needs no baselines. Check may
// be called between accesses and from Faulter.Routed: the hierarchy is
// never mid-update there.
type Checker struct {
	cfg  CheckerConfig
	base *pipeline.Base

	// Checks counts completed Check calls.
	Checks uint64
	// Violations counts Check calls that found at least one violation.
	Violations uint64

	firstErr error
}

// NewChecker builds a checker.
func NewChecker(cfg CheckerConfig) *Checker {
	return &Checker{cfg: cfg, base: cfg.Mem.BaseState()}
}

// Err returns the first violation any Check observed, or nil.
func (c *Checker) Err() error { return c.firstErr }

// maxViolations bounds how many violations one Check reports.
const maxViolations = 8

// Check runs every invariant and returns the violations found (nil when
// the system is consistent). The first failing Check is retained for Err.
func (c *Checker) Check() error {
	c.Checks++
	var errs []error
	add := func(err error) {
		if err != nil && len(errs) < maxViolations {
			errs = append(errs, err)
		}
	}
	c.checkNames(add)
	c.checkFilters(add)
	c.checkTLBs(add)
	c.checkPayloads(add)
	c.checkStats(add)
	if c.cfg.SplitL1 {
		add(c.cfg.Mem.Hierarchy().CheckSets())
	} else {
		add(c.cfg.Mem.Hierarchy().CheckInvariants())
	}
	if len(errs) == 0 {
		return nil
	}
	c.Violations++
	err := errors.Join(errs...)
	if c.firstErr == nil {
		c.firstErr = err
	}
	return err
}

// nameRec is one distinct cache name resolved to its physical line.
type nameRec struct {
	name     addr.Name
	writable bool // the mapping permits writes
	shared   bool // the backing PTE is marked r/w shared
}

// checkNames audits the one-name-per-block invariant.
func (c *Checker) checkNames(add func(error)) {
	h := c.cfg.Mem.Hierarchy()
	// byPA maps each line-aligned physical address to the distinct names
	// (keyed by Name.Key) it is cached under anywhere in the hierarchy.
	byPA := make(map[addr.PA]map[uint64]nameRec)
	record := func(pa addr.PA, r nameRec) {
		m := byPA[pa]
		if m == nil {
			m = make(map[uint64]nameRec, 1)
			byPA[pa] = m
		}
		m[r.name.Key()] = r
	}
	walk := func(label string, ca *cache.Cache) {
		ca.ForEachLine(func(n addr.Name, l *cache.Line) {
			if n.Kind != addr.PayloadData {
				// Metadata blocks (cached translations, synonym records) are
				// named by the virtual page they describe, not by data they
				// hold, so they never alias a data line; checkPayloads audits
				// them against the OS structures instead.
				return
			}
			if n.Synonym {
				if c.cfg.SplitL1 {
					// Outside the virtual L1, the physical address is the
					// name: nothing to cross-check, and a filter false
					// positive may legitimately have cached a physical
					// duplicate of a virtual L1 line.
					return
				}
				record(addr.PA(n.Addr), nameRec{name: n, writable: l.Perm.AllowsWrite()})
				return
			}
			proc := c.cfg.Kernel.Process(n.ASID)
			if proc == nil {
				add(fmt.Errorf("%s: line %s names unknown address space", label, n))
				return
			}
			va := addr.VA(n.Addr)
			pte, ok := proc.PT.Lookup(va)
			if !ok {
				add(fmt.Errorf("%s: line %s is stale: page not mapped", label, n))
				return
			}
			pa, ok := proc.PT.Translate(va)
			if !ok {
				add(fmt.Errorf("%s: line %s: page table walk failed", label, n))
				return
			}
			if c.cfg.TranslateGPA != nil {
				ma, ok := c.cfg.TranslateGPA(addr.GPA(pa))
				if !ok {
					add(fmt.Errorf("%s: line %s: guest PA %#x has no machine backing", label, n, uint64(pa)))
					return
				}
				pa = ma
			}
			if pte.Shared && !c.cfg.AllowSharedVirtual {
				add(fmt.Errorf("%s: synonym page cached under virtual name %s", label, n))
				return
			}
			record(pa, nameRec{name: n, writable: pte.Perm.AllowsWrite(), shared: pte.Shared})
		})
	}
	if c.cfg.SplitL1 {
		// Virtual lines live only in the (single-core) L1s.
		walk("l1i0", h.L1I(0))
		walk("l1d0", h.L1D(0))
	} else {
		for i := 0; i < h.NumCores(); i++ {
			walk(fmt.Sprintf("l1i%d", i), h.L1I(i))
			walk(fmt.Sprintf("l1d%d", i), h.L1D(i))
			walk(fmt.Sprintf("l2-%d", i), h.L2(i))
		}
		walk("llc", h.LLC())
	}
	for pa, names := range byPA {
		if len(names) <= 1 {
			continue
		}
		// Legitimate multi-name cases: read-only content sharing keeps one
		// virtual name per mapping (Section III-D), and filter-bypass
		// organizations cache r/w shared pages under each sharer's name.
		allVirtual, allReadOnly, allShared := true, true, true
		for _, r := range names {
			allVirtual = allVirtual && !r.name.Synonym
			allReadOnly = allReadOnly && !r.writable
			allShared = allShared && r.shared
		}
		if allVirtual && (allReadOnly || (c.cfg.AllowSharedVirtual && allShared)) {
			continue
		}
		list := make([]string, 0, len(names))
		for _, r := range names {
			list = append(list, r.name.String())
		}
		sort.Strings(list)
		add(fmt.Errorf("physical line %#x cached under %d names: %v", uint64(pa), len(list), list))
	}
}

// checkFilters verifies the no-false-negative guarantee: every page of
// every live synonym range must classify as a candidate.
func (c *Checker) checkFilters(add func(error)) {
	asids := c.cfg.Kernel.ASIDs()
	sort.Slice(asids, func(i, j int) bool { return asids[i] < asids[j] })
	for _, asid := range asids {
		p := c.cfg.Kernel.Process(asid)
		for _, r := range p.SynonymRanges {
			for off := uint64(0); off < r.Length; off += addr.PageSize {
				if va := r.Start + addr.VA(off); !p.Filter.ProbeQuiet(va) {
					add(fmt.Errorf("filter false negative: %s %#x is a live synonym page but not a candidate", asid, uint64(va)))
					break // one per range keeps reports readable
				}
			}
		}
	}
}

// checkTLBs verifies every valid entry of the wired translation
// structures against the page tables.
func (c *Checker) checkTLBs(add func(error)) {
	const hugeFrames = addr.HugePageSize / addr.PageSize
	for _, nt := range c.cfg.TLBs {
		nt.T.ForEach(func(e tlb.Entry) {
			proc := c.cfg.Kernel.Process(e.ASID)
			if proc == nil {
				add(fmt.Errorf("%s: entry for dead address space %s", nt.Name, e.ASID))
				return
			}
			va := addr.PageToVA(e.VPN)
			pte, ok := proc.PT.Lookup(va)
			if !ok {
				add(fmt.Errorf("%s: stale entry %s vpn %#x: page not mapped", nt.Name, e.ASID, e.VPN))
				return
			}
			want := pte.Frame
			if pte.Huge {
				want |= e.VPN & (hugeFrames - 1)
			}
			if e.PFN != want {
				add(fmt.Errorf("%s: entry %s vpn %#x maps frame %#x, page table says %#x",
					nt.Name, e.ASID, e.VPN, e.PFN, want))
				return
			}
			if e.Shared != pte.Shared {
				add(fmt.Errorf("%s: entry %s vpn %#x shared=%v disagrees with page table (%v)",
					nt.Name, e.ASID, e.VPN, e.Shared, pte.Shared))
			}
		})
	}
}

// checkPayloads verifies every cached metadata block against the
// authoritative OS structures through the organization's PayloadCoherence
// hook (translation blocks must agree with the page tables, synonym
// records with the live synonym ranges).
func (c *Checker) checkPayloads(add func(error)) {
	if c.cfg.PayloadCoherence == nil {
		return
	}
	c.cfg.Mem.Hierarchy().ForEachPayload(func(n addr.Name, payload uint64) {
		add(c.cfg.PayloadCoherence(n, payload))
	})
}

// checkStats reconciles the pipeline counts against the memory system's
// own statistics.
func (c *Checker) checkStats(add func(error)) {
	counts := &c.base.Counts
	if got, want := counts.Faults, c.base.Faults.Value(); got != want {
		add(fmt.Errorf("reconciliation: counted %d faults, base counter says %d", got, want))
	}
	if got, want := counts.WalkSteps, c.base.WalkSteps.Value(); !c.cfg.NestedWalks && got != want {
		add(fmt.Errorf("reconciliation: counted %d walk steps, base counter says %d", got, want))
	}
	for _, r := range c.cfg.Extra {
		if got, want := r.Event(counts), r.Stat(); got != want {
			add(fmt.Errorf("reconciliation: %s: counted %d, counter says %d", r.Label, got, want))
		}
	}
}
