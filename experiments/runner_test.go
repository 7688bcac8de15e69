package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hybridvc"
	"hybridvc/internal/sim"
)

func TestRunnerOrderingAndValues(t *testing.T) {
	const n = 40
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = Cell{
			Label: fmt.Sprintf("cell-%d", i),
			Fn:    func(context.Context) (any, error) { return i * i, nil },
		}
	}
	res, err := RunCells(cells, RunOptions{Pool: NewPool(7)})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Value.(int) != i*i {
			t.Fatalf("slot %d holds %v, want %d", i, r.Value, i*i)
		}
	}
}

func TestRunnerPanicBecomesError(t *testing.T) {
	cells := []Cell{
		{Label: "good", Fn: func(context.Context) (any, error) { return 1, nil }},
		{Label: "boom", Fn: func(context.Context) (any, error) { panic("exploded") }},
		{Label: "also-good", Fn: func(context.Context) (any, error) { return 3, nil }},
		{Label: "bad", Fn: func(context.Context) (any, error) { return nil, errors.New("bad cell") }},
	}
	res, err := RunCells(cells, RunOptions{})
	if err == nil {
		t.Fatal("panicking cell produced no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"boom"`) || !strings.Contains(msg, "exploded") {
		t.Errorf("error does not identify the panicking cell: %v", msg)
	}
	if !strings.Contains(msg, `"bad"`) || !strings.Contains(msg, "bad cell") {
		t.Errorf("error does not include the failing cell: %v", msg)
	}
	// Healthy cells still produce results.
	if res[0].Value.(int) != 1 || res[2].Value.(int) != 3 {
		t.Error("healthy cells lost their results")
	}
	if res[1].Value != nil || res[3].Value != nil {
		t.Error("failed cells left non-nil values")
	}
}

func TestRunnerSystemCellErrors(t *testing.T) {
	_, err := RunCells([]Cell{{
		Label:        "bad-org",
		Config:       hybridvc.Config{Org: "bogus"},
		Workloads:    []string{"stream"},
		Instructions: 100,
	}}, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "bad-org") {
		t.Errorf("bad organization not reported: %v", err)
	}
	_, err = RunCells([]Cell{{
		Label:        "bad-workload",
		Workloads:    []string{"no-such-workload"},
		Instructions: 100,
	}}, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "bad-workload") {
		t.Errorf("bad workload not reported: %v", err)
	}
}

func TestRunnerExtract(t *testing.T) {
	res, err := RunCells([]Cell{{
		Label:        "extract",
		Config:       hybridvc.Config{Org: hybridvc.Baseline, LLCBytes: 256 << 10},
		Workloads:    []string{"stream"},
		Instructions: 2000,
		Extract: func(sys *hybridvc.System, rep sim.Report) (any, error) {
			return rep.Instructions, nil
		},
	}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Value.(uint64) != 2000 {
		t.Errorf("extract saw %v instructions, want 2000", res[0].Value)
	}
	if res[0].Report.Cycles == 0 {
		t.Error("report missing")
	}
}

// TestRunnerDeterminism asserts the acceptance criterion: the parallel
// runner produces byte-identical tables regardless of worker count.
// Figure 9 at Quick scale exercises the full system path (timing cores,
// every organization class).
func TestRunnerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 9 sweep twice")
	}
	skipIfRace(t) // TestRunnerSmallDeterminism keeps -race coverage
	render := func(jobs int) string {
		_, table, err := Figure9(Quick, RunOptions{Pool: NewPool(jobs)})
		if err != nil {
			t.Fatal(err)
		}
		return table.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("jobs=1 and jobs=8 tables differ:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
			serial, parallel)
	}
}

// TestRunnerSmallDeterminism is the race-friendly determinism check: a
// small grid of real system cells (every cell builds its own kernel,
// caches and timing core) must produce identical results at jobs=1 and
// jobs=4. It runs under -race, exercising the worker pool end to end.
func TestRunnerSmallDeterminism(t *testing.T) {
	grid := func() []Cell {
		var cells []Cell
		for _, wl := range []string{"stream", "omnetpp"} {
			for _, org := range []hybridvc.Organization{hybridvc.Baseline, hybridvc.HybridManySegSC} {
				cells = append(cells, Cell{
					Label:        fmt.Sprintf("smoke/%s/%s", wl, org),
					Config:       hybridvc.Config{Org: org, LLCBytes: 256 << 10},
					Workloads:    []string{wl},
					Instructions: 2000,
				})
			}
		}
		return cells
	}
	run := func(jobs int) []uint64 {
		res, err := RunCells(grid(), RunOptions{Pool: NewPool(jobs)})
		if err != nil {
			t.Fatal(err)
		}
		var cycles []uint64
		for _, r := range res {
			cycles = append(cycles, r.Report.Cycles)
		}
		return cycles
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("cell %d: jobs=1 got %d cycles, jobs=4 got %d", i, serial[i], parallel[i])
		}
		if serial[i] == 0 {
			t.Errorf("cell %d: zero cycles", i)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{"table1", "table2", "table3", "fig4", "fig7a", "fig7b",
		"fig9", "fig10", "fig11", "multicore", "consolidation", "latency", "ablations", "xarch", "parity", "faults"}
	if len(names) != len(want) {
		t.Fatalf("registry has %d experiments %v, want %d", len(names), names, len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("registry[%d] = %q, want %q", i, names[i], n)
		}
	}
	for _, n := range names {
		e, ok := Lookup(n)
		if !ok || e.Run == nil || e.Description == "" {
			t.Errorf("experiment %q incomplete", n)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup found a nonexistent experiment")
	}
	if !strings.Contains(Usage(), "fig9, ") || !strings.HasSuffix(Usage(), "all") {
		t.Errorf("Usage() malformed: %q", Usage())
	}
}

func TestRegistryRunsQuickExperiment(t *testing.T) {
	e, ok := Lookup("latency")
	if !ok {
		t.Fatal("latency experiment missing")
	}
	tables, err := e.Run(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || !strings.Contains(tables[0].String(), "walk") {
		t.Errorf("latency tables malformed: %v", tables)
	}
}
