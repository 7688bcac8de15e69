// Package core implements the paper's primary contribution: the hybrid
// virtual caching MMU. The entire cache hierarchy is virtually addressed
// (ASID+VA) for non-synonym pages with translation delayed until LLC
// misses (through a delayed TLB or the scalable many-segment translator),
// while synonym candidates — detected by the Bloom-filter synonym filter —
// take a conventional pre-L1 TLB path and are cached physically.
//
// The package defines the MemSystem interface and re-exports the shared
// access-pipeline plumbing (requests, results, the physical access path,
// the timed page walker) from internal/pipeline, which the baseline
// organizations in internal/baseline build on as well. Every organization
// is wired as pipeline stages (FrontEnd -> cache stage -> Backend) run by
// the shared pipeline.Engine.
package core

import (
	"hybridvc/internal/cache"
	"hybridvc/internal/energy"
	"hybridvc/internal/mem"
	"hybridvc/internal/pipeline"
)

// Request is one memory reference presented to a memory system.
type Request = pipeline.Request

// Result reports the outcome of a reference. Result.HitLevel uses the
// same scale in every organization: 1/2/3 for the level that supplied the
// data, 0 for memory.
type Result = pipeline.Result

// Base bundles the pieces every memory system shares and the physical
// access path they all use.
type Base = pipeline.Base

// WalkLeaf is the result of a page walk.
type WalkLeaf = pipeline.WalkLeaf

// FaultLatency is the cycles charged for an OS fault handler invocation
// (demand paging, CoW break, cold segment fill).
const FaultLatency = pipeline.FaultLatency

// NewBase builds the shared substrate.
func NewBase(hcfg cache.HierarchyConfig, dcfg mem.DRAMConfig, model energy.Model) *Base {
	return pipeline.NewBase(hcfg, dcfg, model)
}

// MemSystem is a complete memory system organization: address translation
// plus the cache hierarchy and DRAM.
type MemSystem interface {
	// Access performs one reference.
	Access(req Request) Result
	// AccessBatch performs len(reqs) references in order, writing outcome
	// i into res[i] — the allocation-free hot path. Both slices are caller
	// provided and reusable; results match len(reqs) Access calls.
	AccessBatch(reqs []Request, res []Result)
	// Energy returns the translation-energy accumulator.
	Energy() *energy.Accumulator
	// Hierarchy exposes the cache hierarchy for statistics.
	Hierarchy() *cache.Hierarchy
	// BaseState returns the shared substrate: its counters, its
	// pipeline Counts and its fault hook.
	BaseState() *Base
	// Name identifies the organization in reports.
	Name() string
}

// BaseHolder is the BaseState method of MemSystem on its own. Every
// MemSystem implements it; the benchmark module still asserts it.
type BaseHolder interface {
	BaseState() *Base
}
