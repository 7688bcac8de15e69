package pipeline

import (
	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/energy"
)

// Verdict is a FrontEnd's routing decision for one reference.
type Verdict uint8

const (
	// Done means the front end completed the access itself: Engine.Fault
	// handled an OS fault and, when the handler repaired the mapping,
	// already folded the re-run into the result.
	Done Verdict = iota
	// Physical sends the access through the cache stage under its
	// physical (machine) address.
	Physical
	// Virtual sends the access through the cache stage under ASID+VA,
	// deferring translation to the Backend on an LLC miss.
	Virtual
)

// Decision carries a Verdict and the address/permission it resolved.
type Decision struct {
	Verdict Verdict
	PA      addr.PA
	Perm    addr.Perm
}

// GoPhysical routes the access physically at pa.
func GoPhysical(pa addr.PA, perm addr.Perm) Decision {
	return Decision{Verdict: Physical, PA: pa, Perm: perm}
}

// GoVirtual routes the access virtually; perm is recorded on cache fills.
func GoVirtual(perm addr.Perm) Decision {
	return Decision{Verdict: Virtual, Perm: perm}
}

// FrontEnd is the pre-L1 stage: synonym filtering, TLB lookups, range or
// direct segments, permission checks and the faults they raise. Route
// accumulates front-end latency/faults into res and decides how (or
// whether) the cache stage runs.
type FrontEnd interface {
	Route(req *Request, res *Result) Decision
}

// CacheStage replaces the default full-hierarchy cache access for
// organizations whose hierarchy is not uniformly addressed (OVC's
// virtual-L1/physical-outer split). Physical completes a physically
// routed access; Virtual completes a virtually routed one and returns the
// hierarchy outcome for the Backend.
type CacheStage interface {
	Physical(req *Request, pa addr.PA, perm addr.Perm, res *Result)
	Virtual(req *Request, perm addr.Perm, res *Result) cache.AccessResult
}

// Backend is the post-LLC stage of virtually routed accesses: delayed
// translation on the miss, DRAM, and writeback translation.
type Backend interface {
	Finish(req *Request, res *Result, hres *cache.AccessResult)
}

// Engine executes a declaratively composed organization: it owns the
// shared substrate (Base) and runs FrontEnd -> cache stage -> Backend for
// every reference. Organizations embed *Engine and so inherit Access,
// AccessBatch, Energy, Hierarchy and the Base plumbing; a complete
// MemSystem is the engine plus a Name method and the stage hooks.
type Engine struct {
	*Base
	front FrontEnd
	cache CacheStage // nil: the standard full hierarchy
	back  Backend    // nil: no post-LLC stage

	// wbs snapshots a virtually routed access's writebacks so backend
	// stages can walk them while nested accesses (page walks) reuse the
	// hierarchy's scratch buffer.
	wbs []addr.Name
	// hres is the reusable hierarchy outcome handed to the Backend. A
	// local would escape through the interface call and cost one heap
	// allocation per virtually routed access. Reuse is safe: re-entrant
	// accesses (fault re-runs) finish before the outcome is stored.
	hres cache.AccessResult
}

// NewEngine composes an organization. cacheStage and back may be nil.
func NewEngine(base *Base, front FrontEnd, cacheStage CacheStage, back Backend) *Engine {
	return &Engine{Base: base, front: front, cache: cacheStage, back: back}
}

// Energy implements MemSystem for every organization.
func (e *Engine) Energy() *energy.Accumulator { return e.Acc }

// Hierarchy implements MemSystem for every organization.
func (e *Engine) Hierarchy() *cache.Hierarchy { return e.Hier }

// Access performs one reference through the stage pipeline.
func (e *Engine) Access(req Request) Result {
	var res Result
	e.access(&req, &res)
	return res
}

// AccessBatch performs len(reqs) references in order, writing outcome i
// into res[i]. It is the allocation-free hot path: both slices are caller
// provided (and reused across calls), and every element runs the same
// stage flow as Access. Results are identical to len(reqs) Access calls.
//
// It panics when res is shorter than reqs. When res is longer, only the
// first len(reqs) entries are written; the tail is left untouched (not
// zeroed), so callers may batch into a window of a larger reusable buffer.
// A zero-length batch returns immediately without touching engine state.
func (e *Engine) AccessBatch(reqs []Request, res []Result) {
	if len(res) < len(reqs) {
		panic("pipeline: AccessBatch result slice shorter than request slice")
	}
	// Not Access: its request and result escape to the heap.
	for i := range reqs {
		res[i] = Result{}
		e.access(&reqs[i], &res[i])
	}
}

// Fault is the one way a front end or cache stage handles an OS fault
// (an unmapped page, or a write to a read-only one): it runs the handler,
// charges FaultLatency and sets res.Fault. When the handler repaired the
// mapping, the reference re-runs from the front end, as a precise fault
// re-executes its instruction, and res takes the re-run's outcome: its
// latency adds, its HitLevel and LLCMiss replace. res.Fault stays set
// whatever the re-run did. The re-run enters the pipeline like any
// reference and counts its own route and cache outcome, so every repaired
// fault counts one Counts.Retries, and RouteTotal minus Retries is the
// number of references issued. A front end ends with
// `return e.Fault(req, res)`; a cache stage ignores the Decision.
func (e *Engine) Fault(req *Request, res *Result) Decision {
	lat, fixed := e.HandleFault(req.Proc, req.VA, req.Kind == cache.Write)
	res.Latency += lat
	res.Fault = true
	if fixed {
		e.Counts.Retry()
		r2 := e.Access(*req)
		res.Latency += r2.Latency
		res.LLCMiss = r2.LLCMiss
		res.HitLevel = r2.HitLevel
	}
	return Decision{Verdict: Done}
}

// access runs the three stages for one reference. It counts at the
// stable points of the flow: the route after the front end decided, where
// the faulter runs too, and the cache outcome after the hierarchy (and,
// for virtual routes, the backend) completed, so the count holds the
// reference's final HitLevel/LLCMiss on the unified scale regardless of
// which cache stage ran.
func (e *Engine) access(req *Request, res *Result) {
	d := e.front.Route(req, res)
	e.Counts.Route(d.Verdict)
	if e.faulter != nil {
		e.faulter.Routed()
	}
	switch d.Verdict {
	case Done:
		return
	case Physical:
		if e.cache != nil {
			e.cache.Physical(req, d.PA, d.Perm, res)
		} else {
			lat, hres := e.PhysAccess(req.Core, req.Kind, d.PA, d.Perm)
			res.Latency += lat
			res.LLCMiss = hres.LLCMiss
			res.HitLevel = hres.HitLevel
		}
	case Virtual:
		if e.cache != nil {
			e.hres = e.cache.Virtual(req, d.Perm, res)
		} else {
			e.hres = e.Hier.AccessScratch(req.Core, req.Kind, addr.VirtName(req.Proc.ASID, req.VA), d.Perm)
			// Snapshot the writebacks: the backend may issue nested
			// hierarchy accesses (walks) that reuse the scratch buffer
			// backing hres.Writebacks.
			e.wbs = append(e.wbs[:0], e.hres.Writebacks...)
			e.hres.Writebacks = e.wbs
			res.Latency += e.hres.Latency
			res.HitLevel = e.hres.HitLevel
		}
		if e.back != nil {
			e.back.Finish(req, res, &e.hres)
		}
	}
	e.Counts.Cache(res.HitLevel, res.LLCMiss)
}
