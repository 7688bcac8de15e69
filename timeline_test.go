// Interval time-series acceptance: the windowed collector must produce
// well-formed intervals whose per-field sums telescope exactly to the
// final report — the deltas are computed against the same quantities the
// report reads, so nothing may leak between windows.
package hybridvc_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"hybridvc"
	"hybridvc/internal/core"
	"hybridvc/internal/pipeline"
	"hybridvc/internal/sim"
	"hybridvc/internal/stats"
)

// timelineInterval and timelineInsns leave a partial last window.
const (
	timelineInterval = 10_000
	timelineInsns    = 125_000
)

// newTimelineSystem builds the acceptance system: hybrid-manyseg+sc on a
// small LLC (busy delayed-translation path) with a timelineInterval
// interval, workload loaded.
func newTimelineSystem(t *testing.T, workload string) *hybridvc.System {
	t.Helper()
	simCfg := sim.DefaultConfig()
	simCfg.Interval = timelineInterval
	sys, err := hybridvc.New(hybridvc.Config{
		Org:      hybridvc.HybridManySegSC,
		LLCBytes: 256 << 10,
		Seed:     1,
		Sim:      simCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadWorkload(workload); err != nil {
		t.Fatal(err)
	}
	return sys
}

// runTimeline runs sys for timelineInsns instructions. It returns the
// run's timeline and report and the memory system's counts accumulated
// over the run.
func runTimeline(t *testing.T, sys *hybridvc.System) (*stats.Timeline, sim.Report, [len(eventCountNames)]uint64) {
	t.Helper()
	before := countTotals(&sys.Mem.BaseState().Counts)
	report, err := sys.Run(timelineInsns)
	if err != nil {
		t.Fatal(err)
	}
	tl := sys.LastSim.Timeline()
	if tl == nil {
		t.Fatal("Timeline() is nil with Interval set")
	}
	delta := countTotals(&sys.Mem.BaseState().Counts)
	for k := range delta {
		delta[k] -= before[k]
	}
	return tl, report, delta
}

// eventCountNames names, in order, the event counts that eventCounts
// reads from an interval and countTotals from the pipeline counts. Each
// walk and each delayed translation adds one walk-depth sample.
var eventCountNames = [...]string{
	"refs", "memory hits", "L1 hits", "private hits", "LLC hits", "LLC misses",
	"filter probes", "candidates", "delayed translations", "writeback translations",
	"walk-depth samples",
}

func eventCounts(iv *stats.Interval) [len(eventCountNames)]uint64 {
	return [...]uint64{
		iv.Refs, iv.HitLevels[0], iv.HitLevels[1], iv.HitLevels[2], iv.HitLevels[3], iv.LLCMisses,
		iv.FilterProbes, iv.Candidates, iv.DelayedTranslations, iv.WritebackTranslations,
		iv.WalkDepth.Total,
	}
}

func countTotals(c *pipeline.Counts) [len(eventCountNames)]uint64 {
	return [...]uint64{
		c.RouteTotal, c.CacheHitLevel[0], c.CacheHitLevel[1], c.CacheHitLevel[2], c.CacheHitLevel[3], c.LLCMisses,
		c.FilterProbes, c.FilterCandidates, c.DelayedDemand, c.DelayedWritebacks,
		c.Walks + c.DelayedDemand + c.DelayedWritebacks,
	}
}

// sumEventCounts sums eventCounts over ivs.
func sumEventCounts(ivs []stats.Interval) [len(eventCountNames)]uint64 {
	var sums [len(eventCountNames)]uint64
	for i := range ivs {
		for k, n := range eventCounts(&ivs[i]) {
			sums[k] += n
		}
	}
	return sums
}

// TestTimelineSumsMatchReport requires the intervals, the partial last
// one included, to tile the run and sum to the report's instructions,
// cycles and energy, and their event counts and walk-depth samples to
// sum to what the memory system counted over the run. gups drives LLC
// misses and writeback translations; postgres drives synonym candidates.
func TestTimelineSumsMatchReport(t *testing.T) {
	var seen [len(eventCountNames)]bool
	for _, workload := range []string{"gups", "postgres"} {
		t.Run(workload, func(t *testing.T) {
			tl, report, counted := runTimeline(t, newTimelineSystem(t, workload))
			ivs := tl.Intervals()
			if len(ivs) < 10 {
				t.Fatalf("got %d intervals, want >= 10", len(ivs))
			}
			if last := ivs[len(ivs)-1]; last.Insns >= timelineInterval {
				t.Fatalf("last interval holds %d instructions, want a partial window", last.Insns)
			}

			var insns, cycles uint64
			var energy float64
			prevEnd := uint64(0)
			for i := range ivs {
				iv := &ivs[i]
				if iv.Index != i {
					t.Errorf("interval %d: index %d", i, iv.Index)
				}
				if iv.StartInsns != prevEnd {
					t.Errorf("interval %d: starts at %d, previous ended at %d", i, iv.StartInsns, prevEnd)
				}
				if iv.EndInsns <= iv.StartInsns {
					t.Errorf("interval %d: empty window [%d,%d]", i, iv.StartInsns, iv.EndInsns)
				}
				if iv.Insns != iv.EndInsns-iv.StartInsns {
					t.Errorf("interval %d: Insns %d != EndInsns-StartInsns %d",
						i, iv.Insns, iv.EndInsns-iv.StartInsns)
				}
				prevEnd = iv.EndInsns
				insns += iv.Insns
				cycles += iv.Cycles
				energy += iv.DynamicEnergyPJ
			}
			if insns != report.Instructions {
				t.Errorf("summed interval insns %d != report instructions %d", insns, report.Instructions)
			}
			if cycles != report.Cycles {
				t.Errorf("summed interval cycles %d != report cycles %d", cycles, report.Cycles)
			}
			if diff := math.Abs(energy - report.DynamicEnergyPJ); diff > 1e-6*report.DynamicEnergyPJ {
				t.Errorf("summed interval energy %.3f pJ != report %.3f pJ", energy, report.DynamicEnergyPJ)
			}
			sums := sumEventCounts(ivs)
			for k, want := range counted {
				if sums[k] != want {
					t.Errorf("summed interval %s %d != counted %d", eventCountNames[k], sums[k], want)
				}
				seen[k] = seen[k] || want > 0
			}
		})
	}
	for k, name := range eventCountNames {
		if !seen[k] {
			t.Errorf("no workload exercised %s: its sum check is vacuous", name)
		}
	}
}

// TestTimelineSecondRunCountsOnlyItsOwnEvents continues a system after a
// first timeline run and references issued outside any run: the second
// run's intervals must hold only the second run's refs, walk-depth
// samples and energy, as the memory system counted them over that run.
func TestTimelineSecondRunCountsOnlyItsOwnEvents(t *testing.T) {
	sys := newTimelineSystem(t, "gups")
	runTimeline(t, sys)

	reqs := collectRequests(sys, 4096)
	sys.Mem.AccessBatch(reqs, make([]core.Result, len(reqs)))

	energyBefore := sys.Mem.Energy().Snapshot()
	tl, _, counted := runTimeline(t, sys)
	ivs := tl.Intervals()
	// Every later interval starts from the previous flush, so only the
	// first could carry energy spent before the run.
	spent := sys.Mem.Energy().DynamicSince(energyBefore)
	var energy float64
	for i := range ivs {
		energy += ivs[i].DynamicEnergyPJ
	}
	if diff := math.Abs(energy - spent); diff > 1e-6*spent {
		t.Errorf("second run: summed interval energy %.3f pJ (first interval %.3f) != %.3f spent over the run",
			energy, ivs[0].DynamicEnergyPJ, spent)
	}
	sums := sumEventCounts(ivs)
	for k, want := range counted {
		if sums[k] != want {
			t.Errorf("second run: summed interval %s %d != counted over the run %d",
				eventCountNames[k], sums[k], want)
		}
	}
	if refs, depths := counted[0], counted[len(counted)-1]; refs == 0 || depths == 0 {
		t.Errorf("second run counted %d refs and %d walk-depth samples: the check is vacuous", refs, depths)
	}
}

func TestTimelineNDJSONWellFormed(t *testing.T) {
	tl, _, _ := runTimeline(t, newTimelineSystem(t, "gups"))
	var buf bytes.Buffer
	if err := tl.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var iv stats.Interval
		if err := json.Unmarshal(sc.Bytes(), &iv); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if iv.Index != lines {
			t.Errorf("line %d decodes to index %d", lines, iv.Index)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != tl.Len() {
		t.Errorf("NDJSON has %d lines, timeline has %d intervals", lines, tl.Len())
	}
}

func TestTimelineCSVWellFormed(t *testing.T) {
	tl, _, _ := runTimeline(t, newTimelineSystem(t, "gups"))
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(rows) != tl.Len()+1 {
		t.Fatalf("CSV has %d rows, want header + %d intervals", len(rows), tl.Len())
	}
	cols := len(strings.Split(rows[0], ","))
	for i, row := range rows {
		if got := len(strings.Split(row, ",")); got != cols {
			t.Errorf("row %d has %d columns, header has %d", i, got, cols)
		}
	}
}

// TestTimelineStreamWhileSimulating follows a live timeline with a Since
// cursor while the simulation goroutine appends intervals — the service
// daemon's streaming endpoint does exactly this. Under `go test -race`
// it pins that concurrent streaming is race-free; in any mode it checks
// the streamed sequence is gapless, duplicate-free, and telescopes to
// the final report.
func TestTimelineStreamWhileSimulating(t *testing.T) {
	simCfg := sim.DefaultConfig()
	simCfg.Interval = 5_000
	sys, err := hybridvc.New(hybridvc.Config{
		Org:      hybridvc.HybridManySegSC,
		LLCBytes: 256 << 10,
		Seed:     1,
		Sim:      simCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadWorkload("gups"); err != nil {
		t.Fatal(err)
	}
	simulator := sim.New(simCfg, sys.Mem, sys.Generators())

	done := make(chan sim.Report, 1)
	go func() { done <- simulator.Run(150_000) }()

	var streamed []stats.Interval
	cursor := 0
	var report sim.Report
	for running := true; running; {
		select {
		case report = <-done:
			running = false
		default:
		}
		batch := simulator.Timeline().Since(cursor)
		streamed = append(streamed, batch...)
		cursor += len(batch)
	}
	// Final drain after the run finished.
	streamed = append(streamed, simulator.Timeline().Since(cursor)...)

	if len(streamed) == 0 {
		t.Fatal("streamed no intervals")
	}
	var insns uint64
	for i, iv := range streamed {
		if iv.Index != i {
			t.Fatalf("streamed interval %d has index %d (gap or duplicate)", i, iv.Index)
		}
		insns += iv.Insns
	}
	if insns != report.Instructions {
		t.Errorf("streamed insns sum %d != report instructions %d", insns, report.Instructions)
	}
	if n := simulator.Timeline().Len(); n != len(streamed) {
		t.Errorf("streamed %d of %d intervals", len(streamed), n)
	}
}
