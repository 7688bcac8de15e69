// Command tablegen regenerates the paper's tables and figures from the
// simulator. Each experiment prints the same rows/series the paper
// reports; see EXPERIMENTS.md for the paper-vs-measured record.
//
// Experiments are enumerated from the experiments registry — run
// `tablegen -list` for the current set with descriptions (the -exp flag
// usage is generated from the same registry, so it cannot drift).
// Independent design points of a sweep run concurrently on a worker pool
// (-jobs, default GOMAXPROCS); results are deterministic regardless of
// the worker count.
//
// Ctrl-C or SIGTERM cancels the sweep: running cells stop at their next
// chunk boundary and the command exits once they have returned. With
// -checkpoint every completed cell is journaled, so running the same
// command again resumes where the sweep stopped. A failing cell is
// reported and fails the run; nothing is retried, since the simulator is
// deterministic.
//
// Usage:
//
//	tablegen [-exp <name>|all] [-full] [-jobs N] [-out dir] [-checkpoint file] [-list] [-v]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"hybridvc/experiments"
	"hybridvc/internal/buildinfo"
	"hybridvc/internal/stats"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+experiments.Usage()+")")
	full := flag.Bool("full", false, "run at full (paper-length) scale instead of quick scale")
	outDir := flag.String("out", "", "also write each table as CSV into this directory")
	jobs := flag.Int("jobs", 0, "parallel sweep workers (<= 0 means GOMAXPROCS)")
	list := flag.Bool("list", false, "list the registered experiments and exit")
	verbose := flag.Bool("v", false, "report per-cell sweep progress on stderr")
	ckpt := flag.String("checkpoint", "", "journal completed cells to this NDJSON file and resume from it")
	version := buildinfo.Flag()
	flag.Parse()
	buildinfo.HandleFlag(version, "tablegen")

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-14s %s\n", e.Name, e.Description)
		}
		return
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err)
		}
	}

	// Ctrl-C (or SIGTERM) cancels the sweep context: running cells stop
	// at a chunk boundary, and with -checkpoint the completed cells are
	// already journaled, so re-running the same command resumes where it
	// stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := experiments.RunOptions{Ctx: ctx, Checkpoint: *ckpt, Pool: experiments.NewPool(*jobs)}
	if *verbose {
		opts.Progress = func(done, total int, label string, elapsed time.Duration) {
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %-40s %8v\n", done, total, label,
				elapsed.Round(time.Millisecond))
		}
	}

	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}

	var selected []experiments.Experiment
	if *exp == "all" {
		selected = experiments.All()
	} else if e, ok := experiments.Lookup(*exp); ok {
		selected = []experiments.Experiment{e}
	} else {
		fmt.Fprintf(os.Stderr, "tablegen: unknown experiment %q (want one of: %s)\n",
			*exp, experiments.Usage())
		flag.Usage()
		os.Exit(2)
	}

	sweepStart := time.Now()
	for _, e := range selected {
		start := time.Now()
		tables, err := e.Run(scale, opts)
		if err != nil {
			fail(fmt.Errorf("experiment %s: %w", e.Name, err))
		}
		for i, t := range tables {
			fmt.Println(t)
			if *outDir != "" {
				path := filepath.Join(*outDir, fmt.Sprintf("%s_%d.csv", e.Name, i))
				if err := writeCSV(path, t); err != nil {
					fail(err)
				}
			}
		}
		fmt.Printf("[%s completed in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if len(selected) > 1 {
		fmt.Printf("[sweep of %d experiments completed in %v with %d workers]\n",
			len(selected), time.Since(sweepStart).Round(time.Millisecond), cap(opts.Pool))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tablegen:", err)
	os.Exit(1)
}

func writeCSV(path string, t *stats.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
