// Package synfilter implements the paper's synonym filter (Section III-B):
// a per-address-space pair of 1K-bit Bloom filters that conservatively
// classifies every virtual address as a synonym candidate or a guaranteed
// non-synonym before the L1 cache access.
//
// The coarse filter tracks synonym regions at 16 MiB granularity
// (VA[47:24]) and the fine filter at 32 KiB granularity (VA[47:15], chosen
// because shared pages are commonly allocated as 8 consecutive 4 KiB
// pages). An address is a synonym candidate only when *both* filters hit,
// and each filter requires both of its hash-function bits, so a candidate
// needs all four bits set (Figure 3). The filters are maintained by the
// operating system and loaded into per-core filter storage on context
// switch; marking a page shared uses the TLB-shootdown mechanism to
// synchronize the cores running the same ASID.
package synfilter

import (
	"hybridvc/internal/addr"
	"hybridvc/internal/bloom"
	"hybridvc/internal/stats"
)

// Granularity constants from the paper.
const (
	// FineBits is log2 of the fine filter granule (32 KiB).
	FineBits = 15
	// CoarseBits is log2 of the coarse filter granule (16 MiB).
	CoarseBits = 24
)

// Filter is the synonym filter of one address space: the coarse/fine Bloom
// filter pair.
type Filter struct {
	fine   *bloom.Filter
	coarse *bloom.Filter

	// Inserts counts pages added by the OS.
	Inserts stats.Counter
}

// New creates an empty synonym filter (cleared at address space creation).
func New() *Filter {
	return &Filter{
		fine:   bloom.New(addr.VABits - FineBits),
		coarse: bloom.New(addr.VABits - CoarseBits),
	}
}

// MarkSynonym records that the page containing va became a synonym
// (r/w shared) page. The whole fine and coarse granules covering the page
// are inserted, so any address in those granules becomes a candidate.
func (f *Filter) MarkSynonym(va addr.VA) {
	f.Inserts.Inc()
	f.fine.Insert(uint64(va) >> FineBits)
	f.coarse.Insert(uint64(va) >> CoarseBits)
}

// MarkSynonymRange marks every 4 KiB page in [va, va+length): the pages
// at va, va+4 KiB, ... below va+length. Pages in one granule set the same
// bits, so each fine and coarse granule the pages fall in is inserted
// once, which leaves the filter exactly as one MarkSynonym per page would;
// Inserts still counts pages.
func (f *Filter) MarkSynonymRange(va addr.VA, length uint64) {
	if length == 0 {
		return
	}
	pages := (length + addr.PageSize - 1) / addr.PageSize
	last := uint64(va) + (pages-1)*addr.PageSize
	f.Inserts.Add(pages)
	for g := uint64(va) >> FineBits; g <= last>>FineBits; g++ {
		f.fine.Insert(g)
	}
	for g := uint64(va) >> CoarseBits; g <= last>>CoarseBits; g++ {
		f.coarse.Insert(g)
	}
}

// IsCandidate reports whether va may be a synonym address. A false return
// guarantees the address is not a synonym (no false negatives); a true
// return may be a false positive, which the TLB corrects.
func (f *Filter) IsCandidate(va addr.VA) bool {
	return f.fine.Contains(uint64(va)>>FineBits) &&
		f.coarse.Contains(uint64(va)>>CoarseBits)
}

// Clear empties both filters. Removing a synonym page does not clear bits
// (multiple pages may share them); when stale bits accumulate, the OS
// rebuilds the filter from its list of live synonym ranges instead.
func (f *Filter) Clear() {
	f.fine.Clear()
	f.coarse.Clear()
}

// CorruptBit forces one bit of the fine or coarse Bloom filter to the
// given value, modelling an SRAM soft error in the per-core filter
// storage. It returns whether the bit changed. A cleared bit can produce
// false negatives, which the design forbids — callers model the detected
// soft error by rebuilding from the OS synonym ranges before the next
// classification (see osmodel.Kernel.RebuildFilter).
func (f *Filter) CorruptBit(coarse bool, bit uint64, set bool) bool {
	if coarse {
		return f.coarse.CorruptBit(bit, set)
	}
	return f.fine.CorruptBit(bit, set)
}

// Rebuild reconstructs the filter from the live synonym ranges, dropping
// stale bits left by pages that transitioned back to private.
func (f *Filter) Rebuild(ranges []Range) {
	f.Clear()
	for _, r := range ranges {
		f.MarkSynonymRange(r.Start, r.Length)
	}
}

// Range is a virtual address range of live synonym pages.
type Range struct {
	Start  addr.VA
	Length uint64
}

// Occupancy returns the set-bit fractions of the fine and coarse filters.
func (f *Filter) Occupancy() (fine, coarse float64) {
	return f.fine.Occupancy(), f.coarse.Occupancy()
}

// Load copies another filter's contents (the per-core filter storage load
// performed when the OS sets the filter registers on a context switch).
func (f *Filter) Load(src *Filter) {
	f.fine.Load(src.fine)
	f.coarse.Load(src.coarse)
}

// Pair combines a guest and a host filter for virtualized address spaces
// (Section V-A): the OS maintains the guest filter and the hypervisor the
// host filter, both indexed by guest virtual address. The accessed page is
// a synonym candidate when either filter reports a hit.
type Pair struct {
	Guest *Filter
	Host  *Filter
}

// NewPair creates a guest/host filter pair.
func NewPair(guest, host *Filter) *Pair {
	return &Pair{Guest: guest, Host: host}
}

// IsCandidate reports whether va may be a synonym induced by either the
// guest OS or the hypervisor.
func (p *Pair) IsCandidate(va addr.VA) bool {
	return p.Guest.IsCandidate(va) || p.Host.IsCandidate(va)
}
