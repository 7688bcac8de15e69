package main

import (
	"testing"

	"hybridvc"
)

// TestWrapperTransparency pins that timing the memory system changes no
// simulated statistic: every organization's report is byte-identical
// wrapped and unwrapped, on one core and on the 4-core postgres mix with
// the serial and the parallel run loop.
func TestWrapperTransparency(t *testing.T) {
	gups := simWorkload{load: "gups", orgs: hybridvc.Organizations(), cores: 1, insns: 20_000}
	pg := simWorkloads["sim-postgres-4c"]
	pg.insns = 20_000
	for _, tc := range []struct {
		name    string
		w       simWorkload
		workers int
	}{{"gups", gups, 0}, {"postgres-4c/workers=0", pg, 0}, {"postgres-4c/workers=1", pg, 1}} {
		for _, org := range tc.w.orgs {
			cfg := tc.w.config(org, 1)
			cfg.Sim.Workers = tc.workers
			plain, err := tc.w.runOrg(cfg, false)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, org, err)
			}
			wrapped, err := tc.w.runOrg(cfg, true)
			if err != nil {
				t.Fatalf("%s %s wrapped: %v", tc.name, org, err)
			}
			if wrapped.report != plain.report {
				t.Errorf("%s %s: wrapped report differs at byte %d", tc.name, org, firstDiff(wrapped.report, plain.report))
			}
			if wrapped.mem.refs == 0 || wrapped.mem.batches == 0 || wrapped.mem.busy <= 0 {
				t.Errorf("%s %s: wrapper saw refs=%d batches=%d busy=%v", tc.name, org,
					wrapped.mem.refs, wrapped.mem.batches, wrapped.mem.busy)
			}
		}
	}
}

func TestIntervalSumsEqualReport(t *testing.T) {
	w := hvcdJob
	w.insns = 25_000
	r, err := w.runOrg(w.config(hybridvc.HybridManySegSC, 1), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.intervals) != 3 {
		t.Fatalf("got %d intervals, want 3 (two full, one partial)", len(r.intervals))
	}
	if err := r.check(r.report); err != nil {
		t.Fatal(err)
	}
	r.intervals[1].Cycles++
	if err := checkIntervals(r.intervals, r.rep.Instructions, r.rep.Cycles); err == nil {
		t.Error("a perturbed interval still summed to the report")
	}
}

// TestTimelinePass pins that the timeline pass reproduces the untimed
// report with the collector on and off, counts one timeline per case, and
// fails every run against a wrong reference.
func TestTimelinePass(t *testing.T) {
	w := simWorkload{load: "gups", orgs: []hybridvc.Organization{hybridvc.HybridManySegSC}, cores: 1, insns: 20_000}
	r, err := w.runOrg(w.config(hybridvc.HybridManySegSC, 1), false)
	if err != nil {
		t.Fatal(err)
	}
	c := simCase{org: hybridvc.HybridManySegSC, seed: 1, ref: r.report}
	o := newOutcome()
	w.measureTimeline(o, "test", []simCase{c})
	if o.attempted != 2*timelineRounds || o.failed != 0 {
		t.Fatalf("attempted=%d failed=%d (%s), want %d attempted and none failed", o.attempted, o.failed, o.firstFailure, 2*timelineRounds)
	}
	if got := o.values["stats.intervals"]; got != 2 {
		t.Errorf("stats.intervals = %v, want 2", got)
	}
	if _, ok := o.values["timeline.overhead"]; !ok {
		t.Error("timeline.overhead was not set")
	}

	c.ref = r.report + " "
	o = newOutcome()
	w.measureTimeline(o, "test", []simCase{c})
	if o.failed != o.attempted || o.attempted != 2*timelineRounds {
		t.Errorf("against a wrong reference: attempted=%d failed=%d, want every run failed", o.attempted, o.failed)
	}
}
