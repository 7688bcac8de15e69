package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hybridvc"
	"hybridvc/internal/sim"
	"hybridvc/internal/workload"
)

// Cell is one independent job of an experiment sweep: typically one
// (organization × workload) design point. Most cells describe a complete
// system run — a hybridvc.Config, the workloads to load, and an
// instruction budget — and yield a sim.Report; experiments that need the
// trace model or custom plumbing instead supply Fn, which replaces the
// system path entirely. Cells must be self-contained: they run
// concurrently on a worker pool and may not share mutable state.
type Cell struct {
	// Label identifies the cell in errors and progress output
	// (e.g. "fig9/gups/many-segment+sc").
	Label string

	// Config assembles the system under test (system-path cells). The
	// zero Config gets the facade defaults, including Seed=1; set
	// Config.Seed for a per-cell seed.
	Config hybridvc.Config
	// Workloads are loaded into the system in order (multi-entry for
	// multiprogrammed mixes).
	Workloads []string
	// Specs are custom workload specs loaded after Workloads (used when a
	// named spec needs modification, e.g. forcing huge pages).
	Specs []workload.Spec
	// Instructions is the per-core instruction budget for Run.
	Instructions uint64
	// Extract, when set, post-processes the finished system inside the
	// worker (while the system is still alive) and becomes the cell's
	// Value. Without it the Value is nil and the Report carries the data.
	Extract func(sys *hybridvc.System, rep sim.Report) (any, error)

	// Fn, when set, replaces the system path: the cell runs Fn with the
	// sweep's context and stores its result as the Value (Report stays
	// zero). A long-running Fn should stop and return the context's error
	// once ctx ends.
	Fn func(ctx context.Context) (any, error)

	// DecodeValue, when set, reconstructs a checkpointed Value from its
	// JSON encoding so checkpoint resume (RunOptions.Checkpoint) can restore
	// Extract/Fn results without re-running the cell. A cell whose
	// checkpoint record carries a Value but has no decoder is re-run.
	DecodeValue func(data []byte) (any, error)
}

// CellResult is one cell's outcome, slotted at the cell's input index.
type CellResult struct {
	// Report is the simulation report for system-path cells.
	Report sim.Report
	// Value is the Extract or Fn result.
	Value any
}

// Pool bounds how many cells run at once: a semaphore of slots, one
// held by each running cell. Sweeps that share a Pool share its slots, so
// a long-running service caps its concurrent cells across every sweep it
// runs. Results are index-slotted, so tables are identical for any size.
type Pool chan struct{}

// NewPool returns a pool of n slots; n < 1 means GOMAXPROCS.
func NewPool(n int) Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return make(Pool, n)
}

// acquire takes a slot, giving up when ctx ends first.
func (p Pool) acquire(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	select {
	case p <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (p Pool) release() { <-p }

// RunOptions configures one sweep. The zero value runs on a fresh pool of
// GOMAXPROCS slots, is never cancelled, reports no progress and keeps no
// checkpoint.
type RunOptions struct {
	// Ctx cancels the sweep (nil = never): cells not yet started are
	// skipped, and running cells receive it and stop early.
	Ctx context.Context
	// Checkpoint journals every completed cell to this NDJSON path and
	// resumes from it (empty = off): cells whose records are already
	// present, matched by index and label, are restored instead of re-run,
	// so an interrupted sweep continued with the same cells reaches the
	// same final results.
	Checkpoint string
	// Progress, when set, observes cell completions (done so far, total,
	// the finished cell's label and its elapsed time). Calls for one
	// sweep never overlap.
	Progress func(done, total int, label string, elapsed time.Duration)
	// Pool bounds the sweep's concurrent cells (nil = a fresh pool of
	// GOMAXPROCS slots).
	Pool Pool
}

// RunCells executes the cells, each holding a pool slot while it runs,
// and returns their results in input order. A cell that fails — by
// returned error or recovered panic — leaves its slot's Value nil; all
// failures are joined into the returned error, together with the
// context's cause when the sweep is cancelled. RunCells returns only
// after every cell it started has returned, and it journals only cells
// that succeeded, so an interrupted cell re-runs on resume. Because
// results are index-slotted and cells are isolated, the output is
// identical for any pool size.
func RunCells(cells []Cell, opts RunOptions) ([]CellResult, error) {
	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))
	if len(cells) == 0 {
		return results, nil
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	pool := opts.Pool
	if pool == nil {
		pool = NewPool(0)
	}

	restored := make([]bool, len(cells))
	var ckpt *checkpoint
	if opts.Checkpoint != "" {
		var err error
		ckpt, err = openCheckpoint(opts.Checkpoint, cells, results, restored)
		if err != nil {
			return results, err
		}
		defer ckpt.close()
	}
	done := 0
	for _, r := range restored {
		if r {
			done++
		}
	}

	var progressMu sync.Mutex
	var wg sync.WaitGroup
	for i := range cells {
		if restored[i] {
			continue
		}
		if !pool.acquire(ctx) {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer pool.release()
			start := time.Now()
			results[i], errs[i] = runCell(ctx, cells[i])
			if errs[i] == nil && ckpt != nil {
				errs[i] = ckpt.append(i, cells[i], results[i])
			}
			if opts.Progress != nil {
				progressMu.Lock()
				done++
				opts.Progress(done, len(cells), cells[i].Label, time.Since(start))
				progressMu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if ctx.Err() != nil {
		errs = append(errs, fmt.Errorf("sweep interrupted: %w", context.Cause(ctx)))
	}
	return results, errors.Join(errs...)
}

// runCell executes a single cell, converting any panic into an error so
// one bad design point cannot abort a whole sweep.
func runCell(ctx context.Context, c Cell) (res CellResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cell %q: panic: %v\n%s", c.Label, r, debug.Stack())
		}
	}()
	if c.Fn != nil {
		v, ferr := c.Fn(ctx)
		if ferr != nil {
			return CellResult{}, fmt.Errorf("cell %q: %w", c.Label, ferr)
		}
		return CellResult{Value: v}, nil
	}
	sys, err := hybridvc.New(c.Config)
	if err != nil {
		return CellResult{}, fmt.Errorf("cell %q: %w", c.Label, err)
	}
	for _, wl := range c.Workloads {
		if err := sys.LoadWorkload(wl); err != nil {
			return CellResult{}, fmt.Errorf("cell %q: %w", c.Label, err)
		}
	}
	for _, spec := range c.Specs {
		if err := sys.LoadSpec(spec); err != nil {
			return CellResult{}, fmt.Errorf("cell %q: %w", c.Label, err)
		}
	}
	rep, err := sys.RunContext(ctx, c.Instructions)
	if err != nil {
		return CellResult{}, fmt.Errorf("cell %q: %w", c.Label, err)
	}
	res = CellResult{Report: rep}
	if c.Extract != nil {
		v, xerr := c.Extract(sys, rep)
		if xerr != nil {
			return CellResult{}, fmt.Errorf("cell %q: %w", c.Label, xerr)
		}
		res.Value = v
	}
	return res, nil
}
