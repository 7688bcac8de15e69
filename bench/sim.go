package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"hybridvc"
	"hybridvc/internal/core"
	"hybridvc/internal/sim"
	"hybridvc/internal/stats"
)

// simWorkload is one in-process workload: a list of organizations, each
// simulated from empty caches on the same catalog workload.
type simWorkload struct {
	load  string
	orgs  []hybridvc.Organization
	cores int
	// insns is the instruction count per core of one run.
	insns uint64
	// interval enables the timeline collector (0 = off).
	interval uint64
}

func (w simWorkload) config(org hybridvc.Organization, seed int64) hybridvc.Config {
	sc := sim.DefaultConfig()
	sc.Interval = w.interval
	return hybridvc.Config{Org: org, Cores: w.cores, Seed: seed, Sim: sc}
}

// totalInsns is the instruction count of one run summed over cores.
func (w simWorkload) totalInsns() uint64 { return w.insns * uint64(w.cores) }

const (
	// minPasses is the fewest timed passes a run makes, however long they
	// take.
	minPasses = 3
	// timelineInterval is the interval hvcd gives every simulation job
	// and the interval of the timeline pass.
	timelineInterval = 10_000
	// timelineRounds is how many times the timeline pass runs each case
	// with the collector off and on, alternately.
	timelineRounds = 3
)

// timedMem is a transparent core.MemSystem wrapper that counts and times
// the AccessBatch calls, the simulator's only way into the organization it
// wraps. The token ring serializes those calls, so the fields need no lock.
type timedMem struct {
	core.MemSystem
	refs, batches uint64
	busy          time.Duration
	first         time.Time
}

func (m *timedMem) AccessBatch(reqs []core.Request, res []core.Result) {
	t := time.Now()
	m.MemSystem.AccessBatch(reqs, res)
	m.busy += time.Since(t)
	if m.batches == 0 {
		m.first = t
	}
	m.refs += uint64(len(reqs))
	m.batches++
}

// modelCounts are the simulated machine's exact counters after a run.
type modelCounts struct {
	cycles, insns, llcMisses, walkSteps, faults uint64
}

func (c *modelCounts) add(d modelCounts) {
	c.cycles += d.cycles
	c.insns += d.insns
	c.llcMisses += d.llcMisses
	c.walkSteps += d.walkSteps
	c.faults += d.faults
}

// runResult is one simulation as the benchmark observed it.
type runResult struct {
	start             time.Time
	setup, run, fresh time.Duration
	report            string
	rep               sim.Report
	intervals         []stats.Interval
	counts            modelCounts
	mem               *timedMem // traced runs only
}

// runOrg builds a fresh system, loads the workload and simulates one run.
// Untraced runs go through System.Run, the path every caller takes;
// traced runs drive sim.New with the timing wrapper around the same
// memory system and configuration.
func (w simWorkload) runOrg(cfg hybridvc.Config, traced bool) (r runResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	r.start = time.Now()
	sys, err := hybridvc.New(cfg)
	if err != nil {
		return r, err
	}
	if err := sys.LoadWorkload(w.load); err != nil {
		return r, err
	}
	t1 := time.Now()
	var s *sim.Simulator
	if traced {
		r.mem = &timedMem{MemSystem: sys.Mem}
		s = sim.New(cfg.Sim, r.mem, sys.Generators())
		r.rep = s.Run(w.insns)
	} else {
		if r.rep, err = sys.Run(w.insns); err != nil {
			return r, err
		}
		s = sys.LastSim
	}
	t2 := time.Now()
	r.report = r.rep.JSON()
	t3 := time.Now()
	r.setup, r.run, r.fresh = t1.Sub(r.start), t2.Sub(t1), t3.Sub(r.start)

	if tl := s.Timeline(); tl != nil {
		r.intervals = tl.Intervals()
	}
	for _, c := range s.Cores() {
		r.counts.cycles += c.Cycles()
		r.counts.insns += c.Retired()
	}
	r.counts.llcMisses = sys.Mem.Hierarchy().LLC().Stats.Misses.Value()
	if bh, ok := sys.Mem.(core.BaseHolder); ok {
		b := bh.BaseState()
		r.counts.walkSteps, r.counts.faults = b.WalkSteps.Value(), b.Faults.Value()
	}
	return r, nil
}

// check compares a run against its reference report and, when a timeline
// was collected, its interval sums against the report.
func (r runResult) check(ref string) error {
	if r.report != ref {
		return fmt.Errorf("report differs from the reference run at byte %d", firstDiff(r.report, ref))
	}
	return checkIntervals(r.intervals, r.rep.Instructions, r.rep.Cycles)
}

// checkIntervals verifies that interval deltas telescope to the report.
func checkIntervals(ivs []stats.Interval, insns, cycles uint64) error {
	if len(ivs) == 0 {
		return nil
	}
	var si, sc uint64
	for _, iv := range ivs {
		si += iv.Insns
		sc += iv.Cycles
	}
	if si != insns || sc != cycles {
		return fmt.Errorf("interval sums insns=%d cycles=%d differ from report insns=%d cycles=%d", si, sc, insns, cycles)
	}
	return nil
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runSimWorkload runs the in-process workload: one untimed warm-up pass
// over the organizations, whose reports are the references, then timed
// passes until the measuring window closes, then (traced) the layer
// passes.
func runSimWorkload(name string, w simWorkload, seed int64, window time.Duration, traced bool) *outcome {
	o := newOutcome()
	refs := map[hybridvc.Organization]string{}
	fail := func(org hybridvc.Organization, pass string, err error) error {
		if err == nil {
			return nil
		}
		return fmt.Errorf("%s: org=%s seed=%d pass=%s: %w", name, org, seed, pass, err)
	}
	for _, org := range w.orgs {
		runtime.GC()
		r, err := w.runOrg(w.config(org, seed), false)
		if err == nil {
			refs[org] = r.report
			err = checkIntervals(r.intervals, r.rep.Instructions, r.rep.Cycles)
		}
		o.op(fail(org, "warm-up", err))
	}

	setup := map[hybridvc.Organization][]float64{}
	run := map[hybridvc.Organization][]float64{}
	var fresh []float64
	start := time.Now()
	pass := 1
	for ; pass <= minPasses || time.Since(start) < window; pass++ {
		for _, org := range w.orgs {
			runtime.GC()
			r, err := w.runOrg(w.config(org, seed), false)
			if err == nil {
				setup[org] = append(setup[org], r.setup.Seconds())
				run[org] = append(run[org], r.run.Seconds())
				fresh = append(fresh, ms(r.fresh))
				err = r.check(refs[org])
			}
			o.op(fail(org, fmt.Sprint(pass), err))
		}
	}

	var setupS, runS float64
	cases := make([]simCase, 0, len(w.orgs))
	for _, org := range w.orgs {
		m := median(run[org])
		setupS += median(setup[org])
		runS += m
		o.addDetail("sim."+orgMetric(string(org))+".insts_per_s", "insts/s", ratio(float64(w.totalInsns()), m))
		cases = append(cases, simCase{org: org, seed: seed, ref: refs[org], untracedS: m})
	}
	o.set("sim_insts_per_s", ratio(float64(w.totalInsns())*float64(len(w.orgs)), runS))
	o.set("setup_s", setupS)
	o.set("fresh.p50_ms", median(fresh))
	o.set("fresh.tail_ms", addTail(o, "fresh", fresh))
	o.addDetail("passes", "count", float64(pass-1))

	if traced {
		w.measureLayers(o, name, cases)
		// No service runs in-process: its layers did no work.
		for _, s := range perLayer {
			if layer := strings.SplitN(s.Name, ".", 2)[0]; layer == "service" || layer == "client" || layer == "store" {
				o.set(s.Name, 0)
			}
		}
	}
	return o
}

// addTail records a request class's tail latency, its percentile and its
// sample count as details, and returns the tail latency.
func addTail(o *outcome, class string, xs []float64) float64 {
	pct, v, ok := tail(xs)
	if !ok {
		v = median(xs)
	}
	o.addDetail(class+".tail_pct", "%", pct)
	o.addDetail(class+".tail_ms", "ms", v)
	o.addDetail(class+".samples", "count", float64(len(xs)))
	return v
}

// simCase is one simulation the layer passes repeat: its untraced
// reference report and median untraced Run time.
type simCase struct {
	org       hybridvc.Organization
	seed      int64
	ref       string
	untracedS float64
}

// measureLayers runs the traced pass and the generator pass over the
// cases and sets the simulator's per-layer metrics.
func (w simWorkload) measureLayers(o *outcome, name string, cases []simCase) {
	type orgAgg struct {
		insns     uint64
		untracedS float64
		access    time.Duration
		refs      uint64
	}
	byOrg := map[hybridvc.Organization]*orgAgg{}
	var orgs []hybridvc.Organization // in first-seen order
	var (
		counts            modelCounts
		tracedRun, access time.Duration
		untraced          float64
		refs, batches     uint64
	)
	for i, c := range cases {
		runtime.GC()
		r, err := w.runOrg(w.config(c.org, c.seed), true)
		if err == nil {
			err = r.check(c.ref)
		}
		if err != nil {
			o.op(fmt.Errorf("%s: org=%s seed=%d pass=traced: %w", name, c.org, c.seed, err))
			continue
		}
		o.op(nil)
		trace := fmt.Sprintf("%s/%d", c.org, i)
		o.spans = append(o.spans,
			newSpan(trace, "sim.setup", "", r.start, r.setup, 0),
			newSpan(trace, "sim.run", "", r.start.Add(r.setup), r.run, 0),
			newSpan(trace, "memsys.access", "sim.run", r.mem.first, r.mem.busy, r.mem.batches))
		counts.add(r.counts)
		tracedRun += r.run
		access += r.mem.busy
		untraced += c.untracedS
		refs += r.mem.refs
		batches += r.mem.batches
		a := byOrg[c.org]
		if a == nil {
			a = &orgAgg{}
			byOrg[c.org] = a
			orgs = append(orgs, c.org)
		}
		a.insns += w.totalInsns()
		a.untracedS += c.untracedS
		a.access += r.mem.busy
		a.refs += r.mem.refs
	}
	for _, org := range orgs {
		a := byOrg[org]
		nsPerRef := ratio(float64(a.access.Nanoseconds()), float64(a.refs))
		o.addDetail("memsys."+orgMetric(string(org))+".ns_per_ref", "ns", nsPerRef)
		if org == hybridvc.HybridManySegSC {
			o.set("memsys.hybrid-manyseg-sc.ns_per_ref", nsPerRef)
			o.set("sim.hybrid-manyseg-sc.insts_per_s", ratio(float64(a.insns), a.untracedS))
		}
	}
	loopSelf := tracedRun - access
	o.set("trace.overhead", ratio(tracedRun.Seconds(), untraced)-1)
	o.set("sim.loop_self_s", loopSelf.Seconds())
	o.set("sim.loop_ns_per_insn", ratio(float64(loopSelf.Nanoseconds()), float64(counts.insns)))
	o.set("memsys.access_s", access.Seconds())
	o.set("memsys.ns_per_ref", ratio(float64(access.Nanoseconds()), float64(refs)))
	o.set("memsys.refs", float64(refs))
	o.set("memsys.batches", float64(batches))
	o.set("cpu.cycles", float64(counts.cycles))
	o.set("cpu.instructions", float64(counts.insns))
	o.set("cache.llc_misses", float64(counts.llcMisses))
	o.set("pipeline.walk_steps", float64(counts.walkSteps))
	o.set("pipeline.faults", float64(counts.faults))

	w.measureTimeline(o, name, cases)

	var gen time.Duration
	var nexts uint64
	for i, c := range cases {
		start, d, n, err := w.generate(c.org, c.seed)
		if err != nil {
			o.op(fmt.Errorf("%s: org=%s seed=%d pass=workload: %w", name, c.org, c.seed, err))
			continue
		}
		o.op(nil)
		o.spans = append(o.spans, newSpan(fmt.Sprintf("%s/%d", c.org, i), "workload.next", "", start, d, n))
		gen += d
		nexts += n
	}
	o.set("workload.ns_per_insn", ratio(float64(gen.Nanoseconds()), float64(nexts)))
}

// measureTimeline runs every case through System.Run with the interval
// collector off and on, alternately, and sets timeline.overhead, the cost
// of the timeline every hvcd job carries: the sum over cases of the median
// Run seconds with it on over the same sum with it off, minus 1. Every run
// must reproduce the case's report, and each timeline must sum to it;
// stats.intervals counts the intervals of one timeline per case.
func (w simWorkload) measureTimeline(o *outcome, name string, cases []simCase) {
	var off, on float64
	var intervals int
	for _, c := range cases {
		var times [2][]float64
		for round := 0; round < timelineRounds; round++ {
			for mode, interval := range []uint64{0, timelineInterval} {
				cfg := w.config(c.org, c.seed)
				cfg.Sim.Interval = interval
				runtime.GC()
				r, err := w.runOrg(cfg, false)
				if err == nil {
					err = r.check(c.ref)
				}
				if err == nil && interval > 0 && len(r.intervals) == 0 {
					err = fmt.Errorf("no timeline was collected")
				}
				if err != nil {
					o.op(fmt.Errorf("%s: org=%s seed=%d pass=timeline interval=%d: %w", name, c.org, c.seed, interval, err))
					continue
				}
				o.op(nil)
				times[mode] = append(times[mode], r.run.Seconds())
				if round == 0 {
					intervals += len(r.intervals)
				}
			}
		}
		off += median(times[0])
		on += median(times[1])
	}
	o.set("timeline.overhead", ratio(on, off)-1)
	o.set("stats.intervals", float64(intervals))
}

// generate times the workload generators alone on a freshly built,
// identically seeded system: as many Next calls as one run retires.
func (w simWorkload) generate(org hybridvc.Organization, seed int64) (start time.Time, d time.Duration, n uint64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	sys, err := hybridvc.New(w.config(org, seed))
	if err != nil {
		return start, 0, 0, err
	}
	if err := sys.LoadWorkload(w.load); err != nil {
		return start, 0, 0, err
	}
	gens := sys.Generators()
	per := w.totalInsns() / uint64(len(gens))
	runtime.GC()
	start = time.Now()
	for _, g := range gens {
		for i := uint64(0); i < per; i++ {
			g.Next()
		}
	}
	return start, time.Since(start), per * uint64(len(gens)), nil
}
