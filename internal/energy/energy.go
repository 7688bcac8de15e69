// Package energy accounts for the dynamic and static energy of the address
// translation components — the quantity the paper reduces by ~60%. The
// per-access energies are CACTI-6.5-grade constants (relative magnitudes
// matter, not absolute joules): conventional TLBs are accessed on every
// reference, while the hybrid design pays a small Bloom-filter probe per
// reference and defers the large structures past the LLC.
package energy

import (
	"fmt"
	"sort"
	"strings"
)

// Component identifies one translation structure.
type Component int

// Translation components.
const (
	L1TLB Component = iota
	L2TLB
	SynonymFilter
	SynonymTLB
	DelayedTLB
	IndexCache
	SegmentTable
	SegmentCache
	PageWalk
	NestedTLB
	numComponents
)

var componentNames = [numComponents]string{
	"L1-TLB", "L2-TLB", "synonym-filter", "synonym-TLB", "delayed-TLB",
	"index-cache", "segment-table", "segment-cache", "page-walk", "nested-TLB",
}

func (c Component) String() string {
	if c < 0 || c >= numComponents {
		return fmt.Sprintf("component(%d)", int(c))
	}
	return componentNames[c]
}

// Components lists every component in order.
func Components() []Component {
	out := make([]Component, numComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// Model holds per-access dynamic energy (pJ) and static power
// (pJ/cycle) for each component.
type Model struct {
	PerAccess [numComponents]float64
	Static    [numComponents]float64
}

// DefaultModel returns the default energy constants.
//
//   - The two-level data TLB dominates conventional translation energy.
//   - The synonym filter is two 1K-bit arrays: an order of magnitude
//     cheaper per probe than the L1 TLB's 64x~8B CAM-like structure.
//   - Delayed structures (delayed TLB, index cache, segment table) are
//     large but accessed only after LLC misses.
//   - A page walk's energy covers the walker state machine; the PTE
//     fetches themselves are charged as cache accesses by the MMU.
func DefaultModel() Model {
	var m Model
	m.PerAccess[L1TLB] = 4.0
	m.PerAccess[L2TLB] = 18.0
	m.PerAccess[SynonymFilter] = 0.4
	m.PerAccess[SynonymTLB] = 4.0
	m.PerAccess[DelayedTLB] = 18.0
	m.PerAccess[IndexCache] = 9.0
	m.PerAccess[SegmentTable] = 12.0
	m.PerAccess[SegmentCache] = 3.0
	m.PerAccess[PageWalk] = 30.0
	m.PerAccess[NestedTLB] = 4.0

	m.Static[L1TLB] = 0.010
	m.Static[L2TLB] = 0.040
	m.Static[SynonymFilter] = 0.002
	m.Static[SynonymTLB] = 0.010
	m.Static[DelayedTLB] = 0.040
	m.Static[IndexCache] = 0.020
	m.Static[SegmentTable] = 0.025 // low-standby-power configuration (§IV-C)
	m.Static[SegmentCache] = 0.005
	return m
}

// DelayedTLBEnergy returns the per-access energy for a delayed TLB of the
// given entry count (energy grows roughly with the square root of size).
func DelayedTLBEnergy(entries int) float64 {
	base, baseEntries := 18.0, 1024.0
	scale := 1.0
	for e := baseEntries; e < float64(entries); e *= 2 {
		scale *= 1.4
	}
	return base * scale
}

// Accumulator tallies accesses and computes energy.
type Accumulator struct {
	model    Model
	Accesses [numComponents]uint64
	// Present marks components that exist in the organization and
	// therefore leak static power.
	Present [numComponents]bool
}

// NewAccumulator creates an accumulator over the model with the given
// components present.
func NewAccumulator(m Model, present ...Component) *Accumulator {
	a := &Accumulator{model: m}
	for _, c := range present {
		a.Present[c] = true
	}
	return a
}

// Access records n accesses to component c. Components accessed are
// implicitly present.
func (a *Accumulator) Access(c Component, n uint64) {
	a.Accesses[c] += n
	a.Present[c] = true
}

// Snapshot captures the accumulator's access counts at a point in time,
// so timelines can compute energy deltas.
type Snapshot struct {
	Accesses [numComponents]uint64
}

// Snapshot freezes the current access counts.
func (a *Accumulator) Snapshot() Snapshot {
	return Snapshot{Accesses: a.Accesses}
}

// DynamicSince returns the dynamic energy (pJ) spent since the snapshot
// was taken.
func (a *Accumulator) DynamicSince(s Snapshot) float64 {
	var e float64
	for c := 0; c < int(numComponents); c++ {
		e += float64(a.Accesses[c]-s.Accesses[c]) * a.model.PerAccess[c]
	}
	return e
}

// Dynamic returns total dynamic energy in pJ.
func (a *Accumulator) Dynamic() float64 {
	var e float64
	for c := 0; c < int(numComponents); c++ {
		e += float64(a.Accesses[c]) * a.model.PerAccess[c]
	}
	return e
}

// StaticOver returns leakage energy in pJ over the given cycles.
func (a *Accumulator) StaticOver(cycles uint64) float64 {
	var p float64
	for c := 0; c < int(numComponents); c++ {
		if a.Present[c] {
			p += a.model.Static[c]
		}
	}
	return p * float64(cycles)
}

// Breakdown renders per-component dynamic energy, largest first.
func (a *Accumulator) Breakdown() string {
	type row struct {
		c Component
		e float64
	}
	var rows []row
	for c := 0; c < int(numComponents); c++ {
		if e := float64(a.Accesses[c]) * a.model.PerAccess[c]; e > 0 {
			rows = append(rows, row{Component(c), e})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].e > rows[j].e })
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %12.0f pJ (%d accesses)\n", r.c, r.e, a.Accesses[r.c])
	}
	return b.String()
}
