package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hybridvc"
	"hybridvc/internal/stats"
)

// fnCell builds a trivial Fn cell returning its own index.
func fnCell(i int, fn func(context.Context) (any, error)) Cell {
	return Cell{Label: fmt.Sprintf("cell-%d", i), Fn: fn, DecodeValue: decodeStringRow}
}

// TestContextCancelStopsSweep proves cancellation is prompt: once the
// context fires, pending cells never start, running cells see it and
// return before RunCells does, and RunCells reports the interruption.
func TestContextCancelStopsSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started, returned atomic.Int64
	cells := make([]Cell, 16)
	for i := range cells {
		cells[i] = fnCell(i, func(ctx context.Context) (any, error) {
			defer returned.Add(1)
			started.Add(1)
			<-ctx.Done()
			return nil, ctx.Err()
		})
	}
	go func() {
		for started.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, err := RunCells(cells, RunOptions{Ctx: ctx, Pool: NewPool(2)})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if n := started.Load(); n > 3 {
		t.Errorf("%d cells started after prompt cancellation (2 slots)", n)
	}
	if s, r := started.Load(), returned.Load(); r != s {
		t.Errorf("RunCells returned with %d of %d started cells still running", s-r, s)
	}
}

// TestPoolWaitWatchesContext: a sweep waiting for a slot of a full,
// shared pool gives up when its deadline passes, without running a cell.
func TestPoolWaitWatchesContext(t *testing.T) {
	pool := NewPool(1)
	pool <- struct{}{} // another sweep holds the only slot
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	cell := fnCell(0, func(context.Context) (any, error) {
		t.Error("cell ran without a slot")
		return nil, nil
	})
	if _, err := RunCells([]Cell{cell}, RunOptions{Ctx: ctx, Pool: pool}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sweep waiting for a slot returned %v, want context.DeadlineExceeded", err)
	}
}

// longCell runs the baseline on gups for n instructions through
// System.RunContext. It closes started just before the simulation runs
// and sets returned when it comes back.
func longCell(n uint64, started chan<- struct{}, returned *atomic.Bool) Cell {
	return Cell{
		Label: "long/baseline/gups",
		Fn: func(ctx context.Context) (any, error) {
			defer returned.Store(true)
			sys, err := hybridvc.New(hybridvc.Config{Org: hybridvc.Baseline})
			if err != nil {
				return nil, err
			}
			if err := sys.LoadWorkload("gups"); err != nil {
				return nil, err
			}
			close(started)
			rep, err := sys.RunContext(ctx, n)
			if err != nil {
				return nil, err
			}
			return []string{fmt.Sprint(rep.Instructions), fmt.Sprint(rep.Cycles)}, nil
		},
		DecodeValue: decodeStringRow,
	}
}

// cancelAfterStart cancels the sweep delay after started closes.
func cancelAfterStart(started <-chan struct{}, delay time.Duration) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		time.Sleep(delay)
		cancel()
	}()
	return ctx
}

// TestCancelStopsRunningCell cancels a sweep 50 ms into a cell of 2×10^7
// instructions: the simulation stops at a chunk boundary instead of
// running on, its error wraps context.Canceled, and the cell has returned
// before RunCells does.
func TestCancelStopsRunningCell(t *testing.T) {
	started := make(chan struct{})
	var returned atomic.Bool
	ctx := cancelAfterStart(started, 50*time.Millisecond)
	_, err := RunCells([]Cell{longCell(20_000_000, started, &returned)}, RunOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "simulation interrupted after") {
		t.Errorf("cell was not stopped mid-run: %v", err)
	}
	if !returned.Load() {
		t.Error("RunCells returned while its cell was still running")
	}
}

// TestCancelledCellResumesFromCheckpoint is the checkpointed form of the
// test above: the interrupted cell leaves no journal record, and resuming
// the sweep yields the table of an uninterrupted run while restoring the
// cells that had completed.
func TestCancelledCellResumesFromCheckpoint(t *testing.T) {
	skipIfRace(t) // runs the long cell to completion twice
	const n = 1_000_000
	var quickRuns atomic.Int64
	sweep := func(started chan<- struct{}, returned *atomic.Bool) []Cell {
		cells := make([]Cell, 3)
		for i := range cells {
			cells[i] = fnCell(i, func(context.Context) (any, error) {
				quickRuns.Add(1)
				return []string{fmt.Sprint(i)}, nil
			})
		}
		return append(cells, longCell(n, started, returned))
	}
	render := func(res []CellResult) string {
		t := stats.NewTable("resume", "cell", "value")
		for i, r := range res {
			t.AddRow(fmt.Sprint(i), fmt.Sprint(r.Value))
		}
		return t.String()
	}
	var returned atomic.Bool
	res, err := RunCells(sweep(make(chan struct{}), &returned), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := render(res)

	// One slot runs the three quick cells before the long one starts.
	ckpt := filepath.Join(t.TempDir(), "sweep.ndjson")
	started := make(chan struct{})
	opts := RunOptions{Ctx: cancelAfterStart(started, 10*time.Millisecond), Checkpoint: ckpt, Pool: NewPool(1)}
	quickRuns.Store(0)
	if _, err := RunCells(sweep(started, &returned), opts); !errors.Is(err, context.Canceled) ||
		!strings.Contains(err.Error(), "simulation interrupted after") {
		t.Fatalf("interrupted sweep returned %v", err)
	}
	journal, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(journal), "\n"); lines != 3 || strings.Contains(string(journal), "long/") {
		t.Fatalf("journal holds %d records (want the 3 quick cells only):\n%s", lines, journal)
	}

	res, err = RunCells(sweep(make(chan struct{}), &returned), RunOptions{Checkpoint: ckpt})
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if got := render(res); got != want {
		t.Errorf("resumed table differs from an uninterrupted run:\n%s\nwant:\n%s", got, want)
	}
	if q := quickRuns.Load(); q != 3 {
		t.Errorf("quick cells ran %d times over both passes, want 3 (resume restores them)", q)
	}
}

// TestCheckpointResume proves the resume contract: a sweep interrupted
// partway, then re-run against the same checkpoint, reaches results
// identical to an uninterrupted sweep — restored cells do not re-run.
func TestCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ndjson")
	opts := RunOptions{Checkpoint: ckpt, Pool: NewPool(1)}

	var runs atomic.Int64
	fail := atomic.Bool{}
	fail.Store(true)
	mk := func() []Cell {
		cells := make([]Cell, 6)
		for i := range cells {
			i := i
			cells[i] = fnCell(i, func(context.Context) (any, error) {
				if i >= 3 && fail.Load() {
					return nil, fmt.Errorf("interrupted before cell %d", i)
				}
				runs.Add(1)
				return []string{fmt.Sprintf("value-%d", i)}, nil
			})
		}
		return cells
	}

	if _, err := RunCells(mk(), opts); err == nil {
		t.Fatal("interrupted sweep reported success")
	}
	if n := runs.Load(); n != 3 {
		t.Fatalf("%d cells completed before interruption, want 3", n)
	}

	fail.Store(false)
	results, err := RunCells(mk(), opts)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if n := runs.Load(); n != 6 {
		t.Errorf("resume re-ran completed cells: %d total runs, want 6", n)
	}
	for i, r := range results {
		want := []string{fmt.Sprintf("value-%d", i)}
		if !reflect.DeepEqual(r.Value, any(want)) {
			t.Errorf("cell %d resumed to %v, want %v", i, r.Value, want)
		}
	}

	// A torn trailing record (crash mid-write) must not poison resume.
	f, err := os.OpenFile(ckpt, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":2,"label":"cell-2","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := RunCells(mk(), opts); err != nil {
		t.Fatalf("resume with torn trailing record: %v", err)
	}
	if n := runs.Load(); n != 6 {
		t.Errorf("torn record caused re-runs: %d total runs, want 6", n)
	}
}

// TestCheckpointResumeMatchesUninterrupted proves byte-level determinism
// of resume on the real system path: a fault-sweep cell checkpointed and
// restored yields the same table as running fresh.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	skipIfRace(t)

	fresh, err := FaultSweep(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	opts := RunOptions{Checkpoint: filepath.Join(t.TempDir(), "faults.ndjson")}
	first, err := FaultSweep(Quick, opts)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := FaultSweep(Quick, opts) // every cell restored from the journal
	if err != nil {
		t.Fatal(err)
	}
	if fresh.String() != first.String() {
		t.Errorf("checkpointed sweep diverged from plain sweep")
	}
	if fresh.String() != resumed.String() {
		t.Errorf("resumed sweep diverged from uninterrupted sweep")
	}
}

// TestRunnerRaceSafety exercises the pool's panic recovery and the
// checkpoint journal concurrently; run with -race it proves both are
// goroutine-safe. The second pass restores every healthy cell from the
// journal and re-runs only the panicking ones, which still fail.
func TestRunnerRaceSafety(t *testing.T) {
	opts := RunOptions{Checkpoint: filepath.Join(t.TempDir(), "race.ndjson"), Pool: NewPool(8)}
	var runs [32]atomic.Int64
	cells := make([]Cell, len(runs))
	for i := range cells {
		cells[i] = fnCell(i, func(context.Context) (any, error) {
			runs[i].Add(1)
			if i%3 == 0 {
				panic(fmt.Sprintf("panic in cell %d", i))
			}
			return []string{fmt.Sprint(i)}, nil
		})
	}
	for pass := 1; pass <= 2; pass++ {
		results, err := RunCells(cells, opts)
		if err == nil || !strings.Contains(err.Error(), "panic in cell 30") {
			t.Fatalf("pass %d: panicking cells not reported: %v", pass, err)
		}
		for i, r := range results {
			var want any
			if i%3 != 0 {
				want = []string{fmt.Sprint(i)}
			}
			if !reflect.DeepEqual(r.Value, want) {
				t.Errorf("pass %d, cell %d: %v, want %v", pass, i, r.Value, want)
			}
		}
	}
	for i := range runs {
		want := int64(1)
		if i%3 == 0 {
			want = 2
		}
		if n := runs[i].Load(); n != want {
			t.Errorf("cell %d ran %d times, want %d", i, n, want)
		}
	}
}
