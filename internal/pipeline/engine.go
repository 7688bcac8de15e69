package pipeline

import (
	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/energy"
)

// Verdict is a FrontEnd's routing decision for one reference.
type Verdict uint8

const (
	// Done means the front end completed the access itself (an
	// unrecoverable fault dead-end, or a fault-and-retry that already
	// folded the retried access into the result).
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

// DoneNow reports the access as already completed by the front end.
func DoneNow() Decision { return Decision{Verdict: Done} }

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

// BatchFrontEnd is an optional FrontEnd extension for the structure-of-
// arrays batch path. RouteBatch decodes a maximal prefix of reqs whose
// routing is pure: decided entirely from front-end state (synonym filters,
// TLBs, segment registers, page-table permissions) without touching any
// order-sensitive shared state — no cache hierarchy or DRAM accesses, no
// timed page walks, no OS faults. For each decoded element i it writes the
// decision into dec[i], adds any front-end latency to res[i], and commits
// the front-end bookkeeping (energy, TLB LRU and statistics, counters)
// that element would incur on the scalar path. It returns the number of
// elements decoded. The first impure element stops the prefix and must be
// left fully untouched (pure probes only, nothing committed): the engine
// routes it through the scalar path, which redoes its front end exactly,
// and then resumes batch decoding after it. Returning 0 is always correct
// and means "scalar-process the first element".
//
// The slices are parallel and equally sized; dec entries are engine-owned
// scratch reused across calls, so stale contents must be overwritten, not
// read.
type BatchFrontEnd interface {
	FrontEnd
	RouteBatch(reqs []Request, res []Result, dec []Decision) int
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

	// bfront caches front's optional batch interface so the hot loop pays
	// a nil-check instead of a type assertion per chunk.
	bfront BatchFrontEnd

	// dec is the engine-owned decision lane of the structure-of-arrays
	// batch path: RouteBatch decodes reqs[i] into dec[i], and the dispatch
	// stage consumes the run without re-entering the front end.
	dec []Decision
	// wbs snapshots a batched access's writebacks so backend stages can
	// walk them while nested accesses (page walks) reuse the hierarchy's
	// scratch buffer.
	wbs []addr.Name
	// hres is the reusable hierarchy outcome handed to the Backend. A
	// local would escape through the interface call and cost one heap
	// allocation per virtually routed access. Reuse is safe: re-entrant
	// accesses (fault retries) finish before the outcome is stored.
	hres cache.AccessResult
	// touch accumulates TouchSets checksums so the prefetch pass cannot be
	// dead-code-eliminated.
	touch uint64
}

// NewEngine composes an organization. cacheStage and back may be nil.
func NewEngine(base *Base, front FrontEnd, cacheStage CacheStage, back Backend) *Engine {
	e := &Engine{Base: base, front: front, cache: cacheStage, back: back}
	e.bfront, _ = front.(BatchFrontEnd)
	return e
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
// provided (and reused across calls), and the hierarchy, translator and
// writeback plumbing run on engine-owned scratch buffers. Results are
// identical to len(reqs) scalar Access calls.
//
// It panics when res is shorter than reqs. When res is longer, only the
// first len(reqs) entries are written; the tail is left untouched (not
// zeroed), so callers may batch into a window of a larger reusable buffer.
// A zero-length batch returns immediately without touching engine state.
//
// When the front end implements BatchFrontEnd and no probe is attached,
// the batch runs as a staged structure-of-arrays pass: RouteBatch decodes
// a run of pure routes into the engine's decision lane, the decoded run is
// dispatched through the cache/backend stages (with the tag sets of
// upcoming lanes touched block-wise to overlap host-memory latency), and
// any impure element between runs goes through the scalar access path.
// With a probe attached the whole batch takes the scalar path, preserving
// the exact per-reference event order observers rely on.
func (e *Engine) AccessBatch(reqs []Request, res []Result) {
	if len(res) < len(reqs) {
		panic("pipeline: AccessBatch result slice shorter than request slice")
	}
	if len(reqs) == 0 {
		return
	}
	res = res[:len(reqs)]
	for i := range res {
		res[i] = Result{}
	}
	prev := e.scratchMode
	e.scratchMode = true
	if e.bfront == nil || e.probe != nil {
		for i := range reqs {
			e.access(&reqs[i], &res[i])
		}
		e.scratchMode = prev
		return
	}
	if cap(e.dec) < len(reqs) {
		e.dec = make([]Decision, len(reqs))
	}
	// streak counts consecutive RouteBatch calls that decoded nothing: the
	// stream is in an impure stretch (a TLB-miss walk storm, say), where
	// probing ahead is pure overhead. The loop then scalar-processes a few
	// elements — the streak length, capped — before probing again, so the
	// probe cost amortizes over the stretch while a return to pure traffic
	// is still noticed within a handful of elements.
	streak := 0
	for i := 0; i < len(reqs); {
		if streak > 0 {
			skip := min(streak, maxImpureSkip)
			for k := 0; k < skip && i < len(reqs); k++ {
				e.access(&reqs[i], &res[i])
				i++
			}
			if i == len(reqs) {
				break
			}
		}
		n := e.bfront.RouteBatch(reqs[i:], res[i:], e.dec[:len(reqs)-i])
		if n > 0 {
			e.dispatchRun(reqs[i:i+n], e.dec[:n], res[i:i+n])
			i += n
			streak = 0
		} else {
			streak++
		}
		if i < len(reqs) {
			// The element that stopped the run is impure (timed walk, OS
			// fault, rebuild step): the scalar path handles it whole, then
			// batch decoding resumes after it.
			e.access(&reqs[i], &res[i])
			i++
		}
	}
	e.scratchMode = prev
}

// maxImpureSkip bounds how many elements the batch loop scalar-processes
// between decode attempts during an impure stretch.
const maxImpureSkip = 8

// prefetchBlock is the number of decoded lanes whose cache sets are
// touched ahead of the serial dispatch loop. Large enough to give the host
// CPU real memory-level parallelism across independent tag fetches, small
// enough that the touched sets still sit in host caches when their lane
// dispatches.
const prefetchBlock = 32

// dispatchRun completes a run of decoded lanes: for each block of up to
// prefetchBlock lanes it first touches the hierarchy sets the lanes will
// scan (semantically invisible — see Hierarchy.TouchSets), then executes
// the cache/backend stages per lane exactly as the scalar path would.
func (e *Engine) dispatchRun(reqs []Request, dec []Decision, res []Result) {
	for lo := 0; lo < len(reqs); lo += prefetchBlock {
		hi := lo + prefetchBlock
		if hi > len(reqs) {
			hi = len(reqs)
		}
		if e.cache == nil {
			e.prefetchLanes(reqs[lo:hi], dec[lo:hi])
		}
		for i := lo; i < hi; i++ {
			req, r := &reqs[i], &res[i]
			switch dec[i].Verdict {
			case Physical:
				if e.cache != nil {
					e.cache.Physical(req, dec[i].PA, dec[i].Perm, r)
				} else {
					lat, hres := e.PhysAccess(req.Core, req.Kind, dec[i].PA, dec[i].Perm)
					r.Latency += lat
					r.LLCMiss = hres.LLCMiss
					r.HitLevel = hres.HitLevel
				}
			case Virtual:
				if e.cache != nil {
					e.hres = e.cache.Virtual(req, dec[i].Perm, r)
				} else {
					e.hres = e.hierAccess(req.Core, req.Kind, addr.VirtName(req.Proc.ASID, req.VA), dec[i].Perm)
					// Snapshot the writebacks: the backend may issue nested
					// hierarchy accesses (walks) that reuse the scratch
					// buffer backing hres.Writebacks.
					e.wbs = append(e.wbs[:0], e.hres.Writebacks...)
					e.hres.Writebacks = e.wbs
					r.Latency += e.hres.Latency
					r.HitLevel = e.hres.HitLevel
				}
				if e.back != nil {
					e.back.Finish(req, r, &e.hres)
				}
			}
		}
	}
}

// prefetchLanes touches the hierarchy sets each decoded lane will scan.
// The checksum accumulates into e.touch so the loads stay live.
func (e *Engine) prefetchLanes(reqs []Request, dec []Decision) {
	t := e.touch
	for i := range dec {
		switch dec[i].Verdict {
		case Physical:
			t += e.Hier.TouchSets(reqs[i].Core, reqs[i].Kind, addr.PhysName(dec[i].PA))
		case Virtual:
			t += e.Hier.TouchSets(reqs[i].Core, reqs[i].Kind, addr.VirtName(reqs[i].Proc.ASID, reqs[i].VA))
		}
	}
	e.touch = t
}

// Retry re-executes the request after a fault repaired the mapping and
// folds the retried outcome into res. res.Fault stays set: the original
// reference did fault, whatever the retry then did. The retried access
// re-enters the pipeline, so it emits its own Route/Cache events; the
// Retry event lets observers reconcile event counts with the number of
// references the driver issued.
func (e *Engine) Retry(req *Request, res *Result) {
	if p := e.probe; p != nil {
		p.Retry(RetryEvent{Core: req.Core, Kind: req.Kind, VA: req.VA})
	}
	r2 := e.Access(*req)
	res.Latency += r2.Latency
	res.LLCMiss = r2.LLCMiss
	res.HitLevel = r2.HitLevel
}

// access runs the three stages for one reference. Probe events fire from
// the stable points of the flow: Route after the front end decided, Cache
// after the hierarchy (and, for virtual routes, the backend) completed —
// so the CacheEvent carries the reference's final HitLevel/LLCMiss on the
// unified scale regardless of which cache stage ran.
func (e *Engine) access(req *Request, res *Result) {
	d := e.front.Route(req, res)
	if p := e.probe; p != nil {
		p.Route(RouteEvent{Core: req.Core, Kind: req.Kind, VA: req.VA, Verdict: d.Verdict})
	}
	switch d.Verdict {
	case Physical:
		if e.cache != nil {
			e.cache.Physical(req, d.PA, d.Perm, res)
		} else {
			lat, hres := e.PhysAccess(req.Core, req.Kind, d.PA, d.Perm)
			res.Latency += lat
			res.LLCMiss = hres.LLCMiss
			res.HitLevel = hres.HitLevel
		}
		if p := e.probe; p != nil {
			p.Cache(CacheEvent{Core: req.Core, Kind: req.Kind,
				HitLevel: res.HitLevel, LLCMiss: res.LLCMiss})
		}
	case Virtual:
		if e.cache != nil {
			e.hres = e.cache.Virtual(req, d.Perm, res)
		} else {
			e.hres = e.hierAccess(req.Core, req.Kind, addr.VirtName(req.Proc.ASID, req.VA), d.Perm)
			if e.scratchMode {
				// Snapshot the writebacks: the backend may issue nested
				// hierarchy accesses (walks) that reuse the scratch buffer
				// backing hres.Writebacks.
				e.wbs = append(e.wbs[:0], e.hres.Writebacks...)
				e.hres.Writebacks = e.wbs
			}
			res.Latency += e.hres.Latency
			res.HitLevel = e.hres.HitLevel
		}
		if e.back != nil {
			e.back.Finish(req, res, &e.hres)
		}
		if p := e.probe; p != nil {
			p.Cache(CacheEvent{Core: req.Core, Kind: req.Kind, Virtual: true,
				HitLevel: res.HitLevel, LLCMiss: res.LLCMiss})
		}
	}
}
