// Package sim is the top-level simulator harness: it drives one OoO-lite
// timing core per hardware core, feeding each from a workload generator
// (with round-robin timeslicing when a workload has more processes than
// cores), routes every reference through the configured memory system, and
// collects the performance and energy statistics the experiments report.
package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/cpu"
	"hybridvc/internal/energy"
	"hybridvc/internal/pipeline"
	"hybridvc/internal/stats"
	"hybridvc/internal/workload"
)

// Config parameterizes a simulation run.
type Config struct {
	// CPU is the timing core configuration.
	CPU cpu.Config
	// FetchEvery issues one instruction-fetch line access per this many
	// instructions (64 B lines hold a handful of x86 instructions).
	FetchEvery int
	// Timeslice is the context-switch interval in instructions when a
	// core multiplexes several processes.
	Timeslice uint64
	// Interleave is the per-core chunk size of the round-robin
	// interleaving between cores.
	Interleave int
	// Interval enables the time series: one stats.Interval, read from
	// the memory system's pipeline.Counts, is recorded every Interval
	// retired instructions (summed over cores). 0 (the default) records
	// none.
	Interval uint64
	// Workers selects the run loop. 1 forces the serial loop; 0 (auto) and
	// every other value enable the per-core parallel loop — one goroutine
	// per simulated core over private chunk lanes, plan and access phases
	// serialized in fixed core order by a token ring — whenever more than
	// one core has work and no Interval needs run-loop quiescence.
	// Reports are byte-identical either way: the parallel loop
	// performs every shared-state operation in exactly the serial order,
	// only each core's private retire phase overlaps the ring.
	Workers int
}

// DefaultConfig returns the standard run configuration.
func DefaultConfig() Config {
	return Config{
		CPU:        cpu.DefaultConfig(),
		FetchEvery: 8,
		Timeslice:  50_000,
		Interleave: 128,
	}
}

// Simulator drives one memory system with a set of workload generators.
type Simulator struct {
	cfg    Config
	memsys core.MemSystem
	cores  []*cpu.Core
	// perCore[i] lists the generators multiplexed on core i.
	perCore   [][]*workload.Generator
	active    []int
	sliceLeft []uint64
	fetchOff  []uint64

	// l1iHitLat is the L1I hit latency, hoisted out of the per-reference
	// loop (fetches slower than this stall the front end).
	l1iHitLat uint64

	// lanes[c] holds core c's private chunk buffers of the batched access
	// path: each Interleave-sized chunk is decoded into the plans lane and
	// its references gathered into reqs, executed in one AccessBatch call
	// into results, and then retired against the timing core. Private
	// lanes let the parallel run loop overlap one core's retire with the
	// next core's plan/access without copying.
	lanes []chunkLanes

	// ContextSwitches counts generator switches (filter reloads happen
	// via the OS on real switches; here we count them for energy).
	ContextSwitches stats.Counter
	// Retired counts instructions per core.
	Retired []uint64

	// stop is set asynchronously by Stop (e.g. from a signal handler);
	// the run loop checks it between chunk rounds, so the simulator
	// always quiesces at an access boundary with consistent statistics.
	stop        atomic.Bool
	interrupted bool

	// Interval time-series state (cfg.Interval > 0 only). Each window
	// is the delta of the memory system's counts since prevCounts.
	counts       *pipeline.Counts
	timeline     *stats.Timeline
	prevCounts   pipeline.Counts
	prevEnergy   energy.Snapshot
	prevCycles   uint64
	prevInsns    uint64
	nextBoundary uint64
	intervalIdx  int
}

// stepPlan records the decode of one planned instruction so the replay
// phase can retire it against the batched memory results.
type stepPlan struct {
	// fetch and mem index the chunk's request/result slices; -1 = absent.
	fetch, mem    int32
	isStore       bool
	dependsOnPrev bool
	mispredict    bool
}

// chunkLanes are one core's reusable structure-of-arrays chunk buffers.
type chunkLanes struct {
	plans   []stepPlan
	reqs    []core.Request
	results []core.Result
}

// New creates a simulator. Generators are distributed round-robin over the
// memory system's cores; it panics when no generators are supplied.
func New(cfg Config, ms core.MemSystem, gens []*workload.Generator) *Simulator {
	if len(gens) == 0 {
		panic("sim: no workload generators")
	}
	if cfg.FetchEvery <= 0 {
		cfg.FetchEvery = 8
	}
	if cfg.Interleave <= 0 {
		cfg.Interleave = 128
	}
	if cfg.Timeslice == 0 {
		cfg.Timeslice = 50_000
	}
	if cfg.Workers < 0 {
		cfg.Workers = 0
	}
	n := ms.Hierarchy().NumCores()
	s := &Simulator{
		cfg:       cfg,
		memsys:    ms,
		perCore:   make([][]*workload.Generator, n),
		active:    make([]int, n),
		sliceLeft: make([]uint64, n),
		fetchOff:  make([]uint64, n),
		Retired:   make([]uint64, n),
		lanes:     make([]chunkLanes, n),
	}
	for i, g := range gens {
		c := i % n
		s.perCore[c] = append(s.perCore[c], g)
	}
	for i := 0; i < n; i++ {
		s.cores = append(s.cores, cpu.New(cfg.CPU))
		s.sliceLeft[i] = cfg.Timeslice
	}
	s.l1iHitLat = ms.Hierarchy().Config().L1I.HitLatency
	if cfg.Interval > 0 {
		s.counts = &ms.BaseState().Counts
		s.timeline = &stats.Timeline{}
		s.nextBoundary = cfg.Interval
	}
	return s
}

// Timeline returns the interval time-series, or nil when cfg.Interval is
// 0. It is safe to read concurrently with Run (live metrics endpoints).
func (s *Simulator) Timeline() *stats.Timeline { return s.timeline }

// totalRetired sums retired instructions over cores.
func (s *Simulator) totalRetired() uint64 {
	var n uint64
	for _, r := range s.Retired {
		n += r
	}
	return n
}

// maxCycles returns the slowest active core's cycle count — the same
// quantity Report.Cycles reports, so interval cycle deltas telescope to
// the final report exactly.
func (s *Simulator) maxCycles() uint64 {
	var m uint64
	for c, cc := range s.cores {
		if len(s.perCore[c]) == 0 {
			continue
		}
		if cc.Cycles() > m {
			m = cc.Cycles()
		}
	}
	return m
}

// flushInterval closes the current window: every Interval field is the
// delta since the previous flush, so per-field sums over all intervals
// reproduce the end-of-run totals. The walk-depth histogram is the
// window's own: it is read and reset.
func (s *Simulator) flushInterval() {
	cur := s.counts
	prev := &s.prevCounts
	insns := s.totalRetired()
	cycles := s.maxCycles()

	iv := stats.Interval{
		Index:      s.intervalIdx,
		StartInsns: s.prevInsns,
		EndInsns:   insns,
		Insns:      insns - s.prevInsns,
		Cycles:     cycles - s.prevCycles,

		Refs:      cur.RouteTotal - prev.RouteTotal,
		LLCMisses: cur.LLCMisses - prev.LLCMisses,

		FilterProbes:   cur.FilterProbes - prev.FilterProbes,
		Candidates:     cur.FilterCandidates - prev.FilterCandidates,
		FalsePositives: cur.FalsePositives - prev.FalsePositives,

		Faults:  cur.Faults - prev.Faults,
		Retries: cur.Retries - prev.Retries,

		DelayedTranslations:   cur.DelayedDemand - prev.DelayedDemand,
		WritebackTranslations: cur.DelayedWritebacks - prev.DelayedWritebacks,

		DynamicEnergyPJ: s.memsys.Energy().DynamicSince(s.prevEnergy),
		WalkDepth:       cur.WalkDepth.Snapshot(),
	}
	for l := range iv.HitLevels {
		iv.HitLevels[l] = cur.CacheHitLevel[l] - prev.CacheHitLevel[l]
	}
	if iv.Cycles > 0 {
		iv.IPC = float64(iv.Insns) / float64(iv.Cycles)
	}
	refs := cur.CacheAccesses - prev.CacheAccesses
	l1miss := refs - iv.HitLevels[1]
	l2miss := l1miss - iv.HitLevels[2]
	iv.L1MPKI = stats.PerKilo(l1miss, iv.Insns)
	iv.L2MPKI = stats.PerKilo(l2miss, iv.Insns)
	iv.LLCMPKI = stats.PerKilo(iv.LLCMisses, iv.Insns)
	iv.FPRate = stats.Ratio(iv.FalsePositives, iv.Candidates)

	s.timeline.Append(iv)
	s.intervalIdx++
	s.prevCounts = *cur
	s.prevEnergy = s.memsys.Energy().Snapshot()
	s.prevCycles = cycles
	s.prevInsns = insns
	cur.WalkDepth.Reset()
}

// runChunk advances core c by n instructions through the batched access
// path: plan (decode the instructions, gathering their references in
// program order), access (one AccessBatch call over the chunk), replay
// (retire each instruction against its results). The reference order is
// exactly the scalar per-step order — fetch before the data access of
// each instruction — so stateful components (DRAM open rows) see an
// identical access stream.
func (s *Simulator) runChunk(c int, n uint64) {
	if len(s.perCore[c]) == 0 || n == 0 {
		return
	}
	ln := &s.lanes[c]
	s.planChunk(c, n, ln)
	s.accessChunk(ln)
	s.retireChunk(c, ln)
}

// planChunk decodes the next n instructions of core c into its lanes:
// generator stepping, timeslice bookkeeping, and the program-order gather
// of fetch and data references. It mutates workload and OS-model state
// shared across cores (generator positions, touched-page accounting), so
// the parallel run loop serializes it in core order.
func (s *Simulator) planChunk(c int, n uint64, ln *chunkLanes) {
	gens := s.perCore[c]
	if len(gens) == 0 || n == 0 {
		ln.plans = ln.plans[:0]
		ln.reqs = ln.reqs[:0]
		return
	}
	ln.plans = ln.plans[:0]
	ln.reqs = ln.reqs[:0]
	retired := s.Retired[c]
	fetchEvery := uint64(s.cfg.FetchEvery)

	for i := uint64(0); i < n; i++ {
		g := gens[s.active[c]]

		// Timeslice bookkeeping.
		if len(gens) > 1 {
			s.sliceLeft[c]--
			if s.sliceLeft[c] == 0 {
				s.sliceLeft[c] = s.cfg.Timeslice
				s.active[c] = (s.active[c] + 1) % len(gens)
				s.ContextSwitches.Inc()
			}
		}

		p := stepPlan{fetch: -1, mem: -1}
		// Periodic instruction fetch at line granularity.
		if retired%fetchEvery == 0 {
			va := g.CodeStart + addr.VA(s.fetchOff[c]%g.CodeLen)
			s.fetchOff[c] += addr.LineSize
			p.fetch = int32(len(ln.reqs))
			ln.reqs = append(ln.reqs, core.Request{
				Core: c, Kind: cache.Fetch, VA: va, Proc: g.Proc,
			})
		}

		in := g.Next()
		p.dependsOnPrev = in.DependsOnPrev
		if in.Mispredict {
			p.mispredict = true
		} else if in.IsMem {
			kind := cache.Read
			if in.IsStore {
				kind = cache.Write
				p.isStore = true
			}
			p.mem = int32(len(ln.reqs))
			ln.reqs = append(ln.reqs, core.Request{Core: c, Kind: kind, VA: in.VA, Proc: g.Proc})
		}
		ln.plans = append(ln.plans, p)
		retired++
	}
}

// accessChunk executes a planned chunk's references against the shared
// memory system in one AccessBatch call. Order-sensitive by construction;
// the parallel run loop serializes it in core order.
func (s *Simulator) accessChunk(ln *chunkLanes) {
	if cap(ln.results) < len(ln.reqs) {
		ln.results = make([]core.Result, len(ln.reqs))
	}
	s.memsys.AccessBatch(ln.reqs, ln.results[:len(ln.reqs)])
}

// retireChunk replays a chunk's plans against core c's timing model. It
// touches only core-private state (the cpu core and Retired[c]), so the
// parallel run loop overlaps it with other cores' plan/access phases.
func (s *Simulator) retireChunk(c int, ln *chunkLanes) {
	cc := s.cores[c]
	res := ln.results[:len(ln.reqs)]
	for _, p := range ln.plans {
		if p.mispredict {
			// The fetch (if any) still ran, but a mispredicted branch's
			// front-end stall is subsumed by the flush penalty.
			cc.Mispredict()
			s.Retired[c]++
			continue
		}
		var fetchStall uint64
		if p.fetch >= 0 {
			// A fetch hitting the L1I is fully pipelined; anything slower
			// stalls the front end.
			if fl := res[p.fetch].Latency; fl > s.l1iHitLat {
				fetchStall = fl - s.l1iHitLat
			}
		}
		lat := uint64(1)
		isMem := p.mem >= 0
		if isMem && !p.isStore {
			lat = res[p.mem].Latency
		}
		// Stores retire through the store buffer; their latency is hidden
		// unless the machine backs up, which the LSQ bound models. They
		// charge a store-buffer insertion cost only (lat stays 1).
		cc.Retire(lat+fetchStall, p.dependsOnPrev, isMem)
		s.Retired[c]++
	}
}

// activeCores lists the cores with at least one generator, in core order.
func (s *Simulator) activeCores() []int {
	var act []int
	for c := range s.perCore {
		if len(s.perCore[c]) > 0 {
			act = append(act, c)
		}
	}
	return act
}

// runParallel is the per-core parallel run loop: one goroutine per active
// core, chunk lanes private to each. A token ring serializes the
// order-sensitive plan and access phases in exactly the serial loop's
// fixed core order — worker j runs plan+access only while holding the
// token, then passes it on (the last worker hands it back to the round
// driver) — so every shared-state mutation happens in the serial order
// and reports are byte-identical to Workers=1. Only the retire phase,
// which touches nothing but the core's own timing model and lanes,
// overlaps the ring. The driver checks Stop between rounds, exactly like
// the serial loop, so interruption still quiesces at a chunk boundary.
func (s *Simulator) runParallel(n uint64, act []int) {
	ilv := uint64(s.cfg.Interleave)
	rounds := n / ilv
	if n%ilv != 0 {
		rounds++
	}
	toks := make([]chan struct{}, len(act))
	for j := range toks {
		toks[j] = make(chan struct{}, 1)
	}
	ringOut := make(chan struct{}, 1)
	var wg sync.WaitGroup
	for j, c := range act {
		wg.Add(1)
		go func(j, c int) {
			defer wg.Done()
			var done uint64
			for range toks[j] {
				chunk := ilv
				if done+chunk > n {
					chunk = n - done
				}
				ln := &s.lanes[c]
				s.planChunk(c, chunk, ln)
				s.accessChunk(ln)
				// Hand the token on before retiring: the next core's
				// plan/access overlaps this core's private replay.
				if j+1 < len(act) {
					toks[j+1] <- struct{}{}
				} else {
					ringOut <- struct{}{}
				}
				s.retireChunk(c, ln)
				done += chunk
			}
		}(j, c)
	}
	for r := uint64(0); r < rounds; r++ {
		toks[0] <- struct{}{}
		<-ringOut
		if s.stop.Load() {
			s.interrupted = true
			break
		}
	}
	// Every token send of the last granted round completed before ringOut
	// was handed back, so each worker is (or will next be) blocked on its
	// empty token channel; closing releases them after any in-flight
	// retire finishes, and Wait publishes all retire state to this
	// goroutine before Report reads it.
	for _, t := range toks {
		close(t)
	}
	wg.Wait()
}

// Run executes n instructions per core, interleaving cores in chunks so
// they share the memory system roughly in lockstep. With cfg.Interval
// set, one stats.Interval is flushed each time total retired instructions
// cross an interval boundary, plus a final partial interval. Run starts
// its windows from a snapshot of the counts and an empty walk-depth
// histogram, so accesses issued outside a Run never enter its intervals.
//
// Unless cfg.Workers is 1, runs with more than one active core and no
// Interval take the parallel per-core loop (see runParallel); its
// reports are byte-identical to the serial loop's. Timeline runs stay on
// the serial loop, which flushes between chunk rounds once every
// retire is done.
func (s *Simulator) Run(n uint64) Report {
	if act := s.activeCores(); s.cfg.Workers != 1 && s.cfg.Interval == 0 && len(act) > 1 {
		s.runParallel(n, act)
		return s.Report()
	}
	if s.timeline != nil {
		s.prevCounts = *s.counts
		s.counts.WalkDepth.Reset()
	}
	done := make([]uint64, len(s.cores))
	for {
		progressed := false
		for c := range s.cores {
			if len(s.perCore[c]) == 0 {
				continue
			}
			chunk := uint64(s.cfg.Interleave)
			if done[c]+chunk > n {
				chunk = n - done[c]
			}
			s.runChunk(c, chunk)
			done[c] += chunk
			if chunk > 0 {
				progressed = true
			}
		}
		if s.timeline != nil {
			for s.totalRetired() >= s.nextBoundary {
				s.flushInterval()
				s.nextBoundary += s.cfg.Interval
			}
		}
		if s.stop.Load() {
			// Quiesce at the chunk boundary: every issued access has
			// retired, so the partial report and timeline are as valid as
			// a completed run's — just shorter.
			s.interrupted = true
			break
		}
		if !progressed {
			break
		}
	}
	if s.timeline != nil && s.totalRetired() > s.prevInsns {
		s.flushInterval()
	}
	return s.Report()
}

// Report summarizes a run.
type Report struct {
	Name string `json:"name"`
	// Cycles is the slowest core's cycle count.
	Cycles uint64 `json:"cycles"`
	// Instructions is the total retired across cores.
	Instructions uint64 `json:"instructions"`
	// IPC is the aggregate instructions per (max) cycle.
	IPC float64 `json:"ipc"`
	// PerCoreIPC lists each core's IPC.
	PerCoreIPC []float64 `json:"per_core_ipc"`
	// TranslationEnergyPJ is the dynamic + static translation energy.
	TranslationEnergyPJ float64 `json:"translation_energy_pj"`
	// DynamicEnergyPJ is the dynamic translation energy alone.
	DynamicEnergyPJ float64 `json:"dynamic_energy_pj"`
	// LLCMissRate is the shared LLC local miss rate.
	LLCMissRate float64 `json:"llc_miss_rate"`
	// MemStallFraction is the fraction of cycles attributed to memory
	// (averaged over active cores).
	MemStallFraction float64 `json:"mem_stall_fraction"`
	// Interrupted marks a report flushed from a run cut short by Stop:
	// the statistics are consistent but cover fewer instructions than
	// requested.
	Interrupted bool `json:"interrupted,omitempty"`
}

// finite maps the IEEE values encoding/json rejects (NaN, ±Inf) to 0 so
// a Report is marshalable by construction.
func finite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// JSON renders the report as a JSON object. It cannot fail: Report holds
// only strings, integers and floats, and every float is sanitized to a
// finite value first (json.Marshal rejects NaN/Inf, nothing else here).
func (r Report) JSON() string {
	r.IPC = finite(r.IPC)
	r.TranslationEnergyPJ = finite(r.TranslationEnergyPJ)
	r.DynamicEnergyPJ = finite(r.DynamicEnergyPJ)
	r.LLCMissRate = finite(r.LLCMissRate)
	r.MemStallFraction = finite(r.MemStallFraction)
	ipcs := make([]float64, len(r.PerCoreIPC))
	for i, v := range r.PerCoreIPC {
		ipcs[i] = finite(v)
	}
	r.PerCoreIPC = ipcs
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// Unreachable: every field type marshals and every float is finite.
		panic(fmt.Sprintf("sim: Report.JSON: %v", err))
	}
	return string(b)
}

// Stop asks the run loop to quiesce at the next chunk boundary and
// return a valid partial report. It is safe to call from another
// goroutine (typically a signal handler) at any time, including before
// Run starts or after it returned.
func (s *Simulator) Stop() { s.stop.Store(true) }

// errStopped is the interruption cause of a run cut short by Stop while
// its context was still live.
var errStopped = errors.New("simulator stopped")

// RunContext is Run under a context: cancelling ctx calls Stop, so the
// run quiesces at the next chunk boundary. An interrupted run returns its
// partial report together with an error wrapping context.Cause(ctx); a
// run that completes returns a nil error even if ctx ends afterwards.
func (s *Simulator) RunContext(ctx context.Context, n uint64) (Report, error) {
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, s.Stop)()
	}
	rep := s.Run(n)
	if !s.interrupted {
		return rep, nil
	}
	cause := context.Cause(ctx)
	if cause == nil {
		cause = errStopped
	}
	return rep, fmt.Errorf("simulation interrupted after %d instructions: %w", rep.Instructions, cause)
}

// Interrupted reports whether the last Run was cut short by Stop.
func (s *Simulator) Interrupted() bool { return s.interrupted }

// Report builds the summary for the current state.
func (s *Simulator) Report() Report {
	r := Report{Name: s.memsys.Name(), Interrupted: s.interrupted}
	for c, cc := range s.cores {
		if len(s.perCore[c]) == 0 {
			continue
		}
		if cc.Cycles() > r.Cycles {
			r.Cycles = cc.Cycles()
		}
		r.Instructions += cc.Retired()
		r.PerCoreIPC = append(r.PerCoreIPC, cc.IPC())
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	acc := s.memsys.Energy()
	r.DynamicEnergyPJ = acc.Dynamic()
	r.TranslationEnergyPJ = acc.Total(r.Cycles)
	r.LLCMissRate = s.memsys.Hierarchy().LLC().Stats.MissRate()
	var stall, cycles uint64
	for c, cc := range s.cores {
		if len(s.perCore[c]) == 0 {
			continue
		}
		stall += cc.MemStallCycles()
		cycles += cc.Cycles()
	}
	if cycles > 0 {
		r.MemStallFraction = float64(stall) / float64(cycles)
	}
	return r
}

// Cores exposes the timing cores (for detailed statistics).
func (s *Simulator) Cores() []*cpu.Core { return s.cores }

// MemSystem exposes the memory system under test.
func (s *Simulator) MemSystem() core.MemSystem { return s.memsys }

func (r Report) String() string {
	return fmt.Sprintf("%-18s cycles=%-12d IPC=%.3f xlat-energy=%.0f pJ llc-miss=%.1f%%",
		r.Name, r.Cycles, r.IPC, r.TranslationEnergyPJ, 100*r.LLCMissRate)
}
