// Package fault provides deterministic fault injection and runtime
// invariant checking for the hybrid virtual caching simulator.
//
// The Injector attaches to a memory system as its pipeline.Faulter: it
// counts references through the engine's Routed hook and, at seeded
// period boundaries, perturbs the system with one of the modelled fault
// kinds — synonym-filter soft errors, forced false-positive storms, TLB
// shootdown bursts, mmap/munmap remap churn through the OS model, and
// transient page-walk failures with bounded retry. Every choice the
// injector makes (target address space, fault kind, bit, page) comes from
// one seeded math/rand stream over deterministically ordered inputs, so a
// given (seed, config, workload) triple produces a byte-identical run
// regardless of host or worker count.
//
// The Checker (see checker.go) verifies the paper's structural invariants
// — one name per physical block, zero synonym-filter false negatives,
// translation-structure/page-table agreement, and pipeline-count/statistics
// reconciliation — and is designed to be run after every injected fault.
//
// All injected faults are *recoverable* by construction: they perturb
// timing, traffic and structure contents, never translation results, so
// the invariants must hold at every injection point for every
// organization.
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"hybridvc/internal/addr"
	"hybridvc/internal/bloom"
	"hybridvc/internal/osmodel"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// FilterSoftError flips one bit of a process's synonym filter,
	// modelling an SRAM soft error. A set bit only widens the candidate
	// set (extra false positives); a cleared bit could create the false
	// negatives the design forbids, so the detected parity error makes
	// the OS rebuild the filter from its live synonym ranges before the
	// filter is consulted again.
	FilterSoftError Kind = iota
	// FilterStorm saturates the filter granules of Burst private pages,
	// forcing a false-positive storm: the pages classify as synonym
	// candidates and take the TLB path until the entries correct them.
	FilterStorm
	// ShootdownBurst broadcasts Burst spurious TLB shootdowns for mapped
	// pages — the over-invalidation real kernels perform when batching
	// shootdown IPIs. Translation structures drop the entries and re-walk
	// the unchanged page tables.
	ShootdownBurst
	// RemapChurn maps and unmaps injector-owned scratch regions through
	// the OS model mid-run, churning the allocator, segment manager,
	// page tables and flush/shootdown machinery under the workload.
	RemapChurn
	// WalkTransient arms Burst transient page-walk failures: the next
	// walks detect a bad PTE fetch and re-issue, bounded by
	// pipeline.MaxWalkRetries.
	WalkTransient

	numKinds
)

var kindNames = [numKinds]string{
	"filter-soft-error", "filter-storm", "shootdown-burst", "remap-churn", "walk-transient",
}

func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
	return kindNames[k]
}

// AllKinds lists every injectable fault kind.
func AllKinds() []Kind {
	return []Kind{FilterSoftError, FilterStorm, ShootdownBurst, RemapChurn, WalkTransient}
}

// Config parameterizes an Injector.
type Config struct {
	// Seed drives every random choice (default 1).
	Seed int64
	// Period is the number of references between injections (default 4096).
	Period uint64
	// Kinds restricts injection to the listed fault classes (default all).
	Kinds []Kind
	// Burst scales multi-shot kinds: shootdowns per burst, pages per
	// filter storm, armed walk transients (default 8).
	Burst int
}

func (c *Config) fillDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Period == 0 {
		c.Period = 4096
	}
	if len(c.Kinds) == 0 {
		c.Kinds = AllKinds()
	}
	if c.Burst <= 0 {
		c.Burst = 8
	}
}

const (
	// churnRegions bounds how many scratch regions RemapChurn keeps mapped
	// per address space before it starts unmapping.
	churnRegions = 4
	// churnBytes is the scratch region size.
	churnBytes = 64 << 10
)

// maxArmedWalks caps the armed walk-transient budget so organizations
// whose walkers do not consult the shared walk path (OVC's private
// walker, nested 2D walks) cannot accumulate an unbounded budget.
const maxArmedWalks = 64

// Injector deterministically perturbs a running system. It implements
// pipeline.Faulter (attach with Base.SetFaulter).
type Injector struct {
	cfg     Config
	kernel  *osmodel.Kernel
	rng     *rand.Rand
	checker *Checker

	accesses   uint64
	seq        uint64
	walkBudget int
	// churn holds the injector-owned scratch regions, oldest first.
	churn map[addr.ASID][]addr.VA

	// Injected counts applied faults by Kind.
	Injected [numKinds]uint64
	// Skipped counts injection slots that found no eligible target.
	Skipped uint64

	// firstErr is the first checker violation observed after an injection.
	firstErr error
}

// NewInjector builds an injector over the kernel that owns the workload's
// address spaces (the guest kernel in virtualized organizations).
func NewInjector(cfg Config, k *osmodel.Kernel) *Injector {
	cfg.fillDefaults()
	return &Injector{
		cfg:    cfg,
		kernel: k,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		churn:  make(map[addr.ASID][]addr.VA),
	}
}

// SetChecker wires an invariant checker to run after every injection; the
// first violation is retained and returned by Err.
func (in *Injector) SetChecker(c *Checker) { in.checker = c }

// Err returns the first invariant violation observed after an injection,
// or nil.
func (in *Injector) Err() error { return in.firstErr }

// Counts returns the per-kind injection counts keyed by Kind name.
func (in *Injector) Counts() map[string]uint64 {
	m := make(map[string]uint64, numKinds)
	for k, n := range in.Injected {
		m[Kind(k).String()] = n
	}
	return m
}

// Total returns the number of faults injected.
func (in *Injector) Total() uint64 { return in.seq }

// Routed implements pipeline.Faulter: every reference advances the
// injection clock; at period boundaries one fault is injected. The engine
// calls it after the front end decided and before the cache stage runs,
// so the hierarchy is never mutated mid-update.
func (in *Injector) Routed() {
	in.accesses++
	if in.accesses%in.cfg.Period != 0 {
		return
	}
	in.inject()
	if in.checker != nil {
		if err := in.checker.Check(); err != nil && in.firstErr == nil {
			in.firstErr = fmt.Errorf("after fault #%d: %w", in.seq, err)
		}
	}
}

// FailWalk implements pipeline.Faulter: armed walk transients drain one
// per walk attempt.
func (in *Injector) FailWalk(int) bool {
	if in.walkBudget > 0 {
		in.walkBudget--
		return true
	}
	return false
}

// inject applies one fault of a seeded-random enabled kind.
func (in *Injector) inject() {
	kind := in.cfg.Kinds[in.rng.Intn(len(in.cfg.Kinds))]
	var ok bool
	switch kind {
	case FilterSoftError:
		ok = in.filterSoftError()
	case FilterStorm:
		ok = in.filterStorm()
	case ShootdownBurst:
		ok = in.shootdownBurst()
	case RemapChurn:
		ok = in.remapChurn()
	case WalkTransient:
		ok = in.walkTransient()
	}
	if !ok {
		in.Skipped++
		return
	}
	in.seq++
	in.Injected[kind]++
}

// pickProc selects a live process deterministically: ASIDs sort before
// the seeded draw so Go's randomized map iteration cannot leak into the
// fault schedule.
func (in *Injector) pickProc() *osmodel.Process {
	asids := in.kernel.ASIDs()
	if len(asids) == 0 {
		return nil
	}
	sort.Slice(asids, func(i, j int) bool { return asids[i] < asids[j] })
	return in.kernel.Process(asids[in.rng.Intn(len(asids))])
}

// filterSoftError flips one filter bit. Cleared bits are repaired by an
// immediate OS rebuild (the parity-detection model), so the filter's
// no-false-negative guarantee is never observable-broken.
func (in *Injector) filterSoftError() bool {
	p := in.pickProc()
	if p == nil {
		return false
	}
	coarse := in.rng.Intn(2) == 1
	bit := uint64(in.rng.Intn(bloom.FilterBits))
	set := in.rng.Intn(2) == 1
	changed := p.Filter.CorruptBit(coarse, bit, set)
	if !set && changed {
		in.kernel.RebuildFilter(p)
	}
	return true
}

// filterStorm marks Burst private pages in the target's filter, forcing
// those granules to classify as synonym candidates (pure false
// positives: extra set bits can never produce a false negative).
func (in *Injector) filterStorm() bool {
	p := in.pickProc()
	if p == nil {
		return false
	}
	var private []*osmodel.Region
	for _, r := range p.Regions {
		if !r.Shared && r.Length >= addr.PageSize {
			private = append(private, r)
		}
	}
	if len(private) == 0 {
		return false
	}
	r := private[in.rng.Intn(len(private))]
	pages := r.Length / addr.PageSize
	for i := 0; i < in.cfg.Burst; i++ {
		va := r.Start + addr.VA((in.rng.Uint64()%pages)*addr.PageSize)
		p.Filter.MarkSynonym(va)
	}
	return true
}

// shootdownBurst broadcasts Burst spurious shootdowns for mapped pages.
func (in *Injector) shootdownBurst() bool {
	p := in.pickProc()
	if p == nil || len(p.Regions) == 0 {
		return false
	}
	r := p.Regions[in.rng.Intn(len(p.Regions))]
	pages := r.Length / addr.PageSize
	if pages == 0 {
		return false
	}
	for i := 0; i < in.cfg.Burst; i++ {
		va := r.Start + addr.VA((in.rng.Uint64()%pages)*addr.PageSize)
		in.kernel.ShootdownPage(p.ASID, va.Page())
	}
	return true
}

// remapChurn maps a fresh injector-owned scratch region, or unmaps the
// oldest once churnRegions are live. Only regions the injector created
// are ever unmapped, so no workload reference can dangle.
func (in *Injector) remapChurn() bool {
	p := in.pickProc()
	if p == nil {
		return false
	}
	owned := in.churn[p.ASID]
	if len(owned) < churnRegions {
		va, err := p.Mmap(churnBytes, addr.PermRW, osmodel.MmapOpts{})
		if err != nil {
			return false // fragmentation: skip this slot
		}
		in.churn[p.ASID] = append(owned, va)
		return true
	}
	if err := in.kernel.Munmap(p, owned[0]); err != nil {
		return false
	}
	in.churn[p.ASID] = append(owned[:0], owned[1:]...)
	return true
}

// walkTransient arms Burst transient walk failures (capped).
func (in *Injector) walkTransient() bool {
	in.walkBudget += in.cfg.Burst
	if in.walkBudget > maxArmedWalks {
		in.walkBudget = maxArmedWalks
	}
	return true
}
