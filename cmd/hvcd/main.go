// Command hvcd is the simulation-as-a-service daemon: a long-running
// HTTP server that accepts simulation and sweep jobs, schedules them on
// a bounded worker pool, and answers repeated submissions of the same
// configuration (one content-addressed key) with the job that already
// ran it instead of re-simulating. The -cache most recently used
// finished jobs stay in memory; an older job's ID answers 404, and its
// spec is served from -store or simulated again.
//
// API (see DESIGN.md §10):
//
//	POST   /v1/jobs               submit a job (dedup via cache key)
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          status + report
//	GET    /v1/jobs/{id}/timeline streamed interval time-series (NDJSON or SSE)
//	DELETE /v1/jobs/{id}          cancel
//	GET    /v1/orgs               organization + workload catalog
//	GET    /v1/experiments        experiment registry
//	GET    /healthz, /readyz      liveness; readiness (503 while draining)
//	GET    /metrics               Prometheus text exposition
//
// Sweep jobs run concurrently, each under its own context and checkpoint
// journal, and share one pool of GOMAXPROCS cell slots. A job that fails
// — an error, a panic, or its -job-timeout — is reported as failed and
// never retried: the simulator is deterministic, so a rerun would fail
// the same way.
//
// SIGTERM/SIGINT drains gracefully: submissions are refused, running
// simulations and sweep cells quiesce at a chunk boundary, running sweeps
// keep their completed cells journaled in the spool dir (resubmitting the
// same spec after a restart resumes), and the process exits once the
// workers finish or the drain timeout expires. A default spool dir (no
// -spool) is removed on drain, since no later process could find it.
//
// With -store DIR, results are also kept on disk and survive restarts.
// Several daemons given the same -store directory serve each other's
// results from it (DESIGN.md §15).
//
// Usage:
//
//	hvcd -addr :8077 -workers 4 -queue 64 -store /var/lib/hvcd
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hybridvc/internal/buildinfo"
	"hybridvc/internal/service"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	workers := flag.Int("workers", 0, "job worker pool size (<= 0 means GOMAXPROCS)")
	queue := flag.Int("queue", 64, "pending-job queue depth (full queue answers 429)")
	cacheEntries := flag.Int("cache", 1024, "finished jobs held in memory, least recently used first out")
	spool := flag.String("spool", "", "sweep checkpoint spool directory (default: per-process temp dir, removed on drain)")
	storeDir := flag.String("store", "", "durable result store directory (empty = memory-only cache)")
	storeTTL := flag.Duration("store-ttl", 24*time.Hour, "expire store records this long after write (< 0 = never)")
	storeMaxBytes := flag.Int64("store-max-bytes", 256<<20, "store size budget, oldest records evicted first (< 0 = unbounded)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job deadline from submission to completion (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	quiet := flag.Bool("quiet", false, "log warnings and errors only")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	version := buildinfo.Flag()
	flag.Parse()
	buildinfo.HandleFlag(version, "hvcd")

	logger, err := newLogger(*logFormat, *quiet)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hvcd:", err)
		os.Exit(2)
	}
	srv, err := service.New(service.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cacheEntries,
		SpoolDir:     *spool,
		Logger:       logger,

		StoreDir:      *storeDir,
		StoreTTL:      *storeTTL,
		StoreMaxBytes: *storeMaxBytes,
		JobTimeout:    *jobTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hvcd:", err)
		os.Exit(1)
	}
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Subscribe before serving: a signal that arrives as soon as the
	// daemon answers /readyz must start a drain, not kill the process.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("hvcd listening", "version", buildinfo.Version(), "addr", *addr)

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "hvcd:", err)
		os.Exit(1)
	case sig := <-sigs:
		logger.Info("hvcd draining on signal", "signal", sig.String(), "max_wait", drainTimeout.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "hvcd: shutdown:", err)
	}
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "hvcd:", drainErr)
		os.Exit(1)
	}
	logger.Info("hvcd drained cleanly")
}

// newLogger builds the daemon's structured logger on stderr. Every job
// lifecycle transition logs at info with its lineage ID, spec key and
// stage latencies; per-request logs are at debug. -quiet raises the
// level to warn, keeping the daemon silent in normal operation.
func newLogger(format string, quiet bool) (*slog.Logger, error) {
	level := slog.LevelInfo
	if quiet {
		level = slog.LevelWarn
	}
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}
