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
	"hybridvc/internal/sim"
	"hybridvc/internal/stats"
)

// timelineInterval and timelineInsns leave a partial last window.
const (
	timelineInterval = 10_000
	timelineInsns    = 125_000
)

// runTimeline runs the acceptance workload: hybrid-manyseg+sc on a small
// LLC (busy delayed-translation path), timelineInsns instructions at a
// timelineInterval interval. A non-nil probe is attached before Run,
// which tees it with the interval collector.
func runTimeline(t *testing.T, workload string, probe *core.CountingProbe) (*stats.Timeline, sim.Report) {
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
	if probe != nil {
		sys.Mem.SetProbe(probe)
	}
	report, err := sys.Run(timelineInsns)
	if err != nil {
		t.Fatal(err)
	}
	tl := sys.LastSim.Timeline()
	if tl == nil {
		t.Fatal("Timeline() is nil with Interval set")
	}
	return tl, report
}

// eventCountNames names, in order, the event counts that eventCounts
// reads from an interval and probeCounts from a probe.
var eventCountNames = [...]string{
	"refs", "memory hits", "L1 hits", "private hits", "LLC hits", "LLC misses",
	"filter probes", "candidates", "delayed translations", "writeback translations",
}

func eventCounts(iv *stats.Interval) [len(eventCountNames)]uint64 {
	return [...]uint64{
		iv.Refs, iv.HitLevels[0], iv.HitLevels[1], iv.HitLevels[2], iv.HitLevels[3], iv.LLCMisses,
		iv.FilterProbes, iv.Candidates, iv.DelayedTranslations, iv.WritebackTranslations,
	}
}

func probeCounts(cp *core.CountingProbe) [len(eventCountNames)]uint64 {
	return [...]uint64{
		cp.RouteTotal, cp.CacheHitLevel[0], cp.CacheHitLevel[1], cp.CacheHitLevel[2], cp.CacheHitLevel[3], cp.LLCMisses,
		cp.FilterProbes, cp.FilterCandidates, cp.DelayedDemand, cp.DelayedWritebacks,
	}
}

// TestTimelineSumsMatchReport requires the intervals, the partial last
// one included, to tile the run and sum to the report's instructions,
// cycles and energy, and their event counts to sum to those of a probe
// attached for the whole run. gups drives LLC misses and writeback
// translations; postgres drives synonym candidates.
func TestTimelineSumsMatchReport(t *testing.T) {
	var seen [len(eventCountNames)]bool
	for _, workload := range []string{"gups", "postgres"} {
		t.Run(workload, func(t *testing.T) {
			cp := &core.CountingProbe{}
			tl, report := runTimeline(t, workload, cp)
			ivs := tl.Intervals()
			if len(ivs) < 10 {
				t.Fatalf("got %d intervals, want >= 10", len(ivs))
			}
			if last := ivs[len(ivs)-1]; last.Insns >= timelineInterval {
				t.Fatalf("last interval holds %d instructions, want a partial window", last.Insns)
			}

			var insns, cycles uint64
			var energy float64
			var sums [len(eventCountNames)]uint64
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
				for k, n := range eventCounts(iv) {
					sums[k] += n
				}
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
			for k, want := range probeCounts(cp) {
				if sums[k] != want {
					t.Errorf("summed interval %s %d != probe %d", eventCountNames[k], sums[k], want)
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

func TestTimelineNDJSONWellFormed(t *testing.T) {
	tl, _ := runTimeline(t, "gups", nil)
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
	tl, _ := runTimeline(t, "gups", nil)
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
