package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridvc"
	"hybridvc/experiments"
	"hybridvc/internal/service/store"
	"hybridvc/internal/sim"
	"hybridvc/internal/telemetry"
)

// Config parameterizes a Server. The zero value is usable: every field
// defaults sensibly in New.
type Config struct {
	// Workers sizes the job worker pool (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pending-job queue; a submission that finds
	// it full is rejected with 429 (default 64).
	QueueDepth int
	// CacheEntries bounds the finished jobs held in memory, least
	// recently used first out (default 1024). A finished job answers
	// every repeat of its spec; one that has aged out answers 404, and
	// its spec is served from the store or simulated again.
	CacheEntries int

	// SpoolDir holds sweep checkpoint journals, keyed by cache key, so
	// a drained sweep resumes when the same spec is resubmitted. The
	// default is a per-process temp dir, which Drain removes.
	SpoolDir string

	// StoreDir enables the durable result store: completed results are
	// persisted there (atomic, checksummed — see the store package) and
	// a restarted daemon, or one whose finished job has aged out, serves
	// them as jobs born done with provenance=disk. Daemons that share one
	// StoreDir also serve each other's results this way. Empty disables
	// the disk tier; the daemon is then memory-only.
	StoreDir string
	// StoreTTL expires store records this long after they were written
	// (default 24h; < 0 disables expiry).
	StoreTTL time.Duration
	// StoreMaxBytes bounds the store size, evicting oldest records
	// first (default 256 MiB; < 0 is unbounded).
	StoreMaxBytes int64
	// StoreHooks inject store write faults; the chaos harness seeds
	// them. Zero value for production.
	StoreHooks store.Hooks

	// JobTimeout is the per-job deadline, armed at submission: a job
	// still unfinished this long after it was accepted — stuck in the
	// queue or executing — is cancelled and lands in the failed state
	// with a deadline-exceeded reason, so watchers always unblock
	// (0 = unbounded).
	JobTimeout time.Duration

	// Logger receives structured request and job-lifecycle logs: one
	// record per lifecycle transition carrying the lineage ID, spec key,
	// org/experiment and stage latencies (nil = silent).
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.StoreTTL == 0 {
		c.StoreTTL = 24 * time.Hour
	}
	if c.StoreMaxBytes == 0 {
		c.StoreMaxBytes = 256 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// metrics are the daemon's counters, served by /metrics and snapshotted
// by MetricsSnapshot. All fields are monotonic except the gauges derived
// at snapshot time.
type metrics struct {
	submitted atomic.Uint64 // accepted submissions (incl. dedup/cache)
	deduped   atomic.Uint64 // submissions coalesced onto a live or finished job
	hits      atomic.Uint64 // repeats answered by a finished job
	misses    atomic.Uint64 // submissions no live or finished job answered
	simulated atomic.Uint64 // simulations actually executed
	sweeps    atomic.Uint64 // experiment sweeps actually executed
	failed    atomic.Uint64
	canceled  atomic.Uint64
	queueFull atomic.Uint64 // submissions rejected 429 by backpressure
	deadlines atomic.Uint64 // jobs failed by the per-job deadline
	busy      atomic.Int64  // workers currently executing a job (gauge)

	// The "completed" counter lives in the telemetry collector: it IS the
	// end-to-end latency histogram's sample count, so the counter and the
	// stage-histogram +Inf buckets reconcile exactly on every scrape.
}

// MetricsSnapshot is the exported counter set (see Server.MetricsSnapshot).
type MetricsSnapshot struct {
	Submitted   uint64 `json:"submitted"`
	Deduped     uint64 `json:"deduped"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	CacheLen    int    `json:"cache_entries"`
	Simulated   uint64 `json:"simulated"`
	Sweeps      uint64 `json:"sweeps"`
	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Canceled    uint64 `json:"canceled"`
	QueueFull   uint64 `json:"queue_full"`
	QueueDepth  int    `json:"queue_depth"`
	Jobs        int    `json:"jobs"`
	Workers     int    `json:"workers"`
	WorkersBusy int    `json:"workers_busy"`
	Draining    bool   `json:"draining"`
	UptimeSec   int64  `json:"uptime_sec"`

	// DeadlineExceeded counts jobs failed by the per-job deadline (a
	// subset of Failed).
	DeadlineExceeded uint64 `json:"deadline_exceeded"`

	// Store is the durable-tier counter block; nil when the disk store
	// is disabled.
	Store *store.Metrics `json:"store,omitempty"`
}

// Server schedules jobs on a bounded worker pool and answers the HTTP
// API (see Handler). Construct with New, start the workers with Start,
// stop with Drain.
type Server struct {
	cfg    Config
	store  *store.Store // durable second tier; nil when disabled
	met    metrics
	tel    *telemetry.Collector
	logger *slog.Logger

	// lifetime is the parent context of every job; drain cancels it
	// after the grace period.
	lifetime context.Context
	endLife  context.CancelFunc

	mu    sync.Mutex
	jobs  map[string]*Job // by ID
	byKey map[string]*Job // latest job per cache key (dedup index)
	// finished holds the terminal jobs, most recently used first; past
	// cfg.CacheEntries the back one leaves jobs and byKey. It is the
	// daemon's only in-memory result tier.
	finished *list.List
	queue    chan *Job
	draining bool
	nextID   atomic.Uint64
	started  time.Time

	// cells is the one pool of GOMAXPROCS slots every sweep job's cells
	// share, so concurrent sweeps never run more cells at once than one
	// sweep alone would.
	cells experiments.Pool
	// tempSpool is the spool dir New created because none was configured;
	// Drain removes it.
	tempSpool string

	wg sync.WaitGroup
}

// New builds a server. Call Start to launch the worker pool.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	var disk *store.Store
	if cfg.StoreDir != "" {
		var err error
		disk, err = store.Open(store.Options{
			Dir:      cfg.StoreDir,
			TTL:      cfg.StoreTTL,
			MaxBytes: cfg.StoreMaxBytes,
			Hooks:    cfg.StoreHooks,
		})
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	var tempSpool string
	if cfg.SpoolDir == "" {
		dir, err := os.MkdirTemp("", "hvcd-spool-")
		if err != nil {
			return nil, fmt.Errorf("service: spool dir: %w", err)
		}
		cfg.SpoolDir, tempSpool = dir, dir
	} else if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: spool dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		store:    disk,
		tel:      telemetry.NewCollector(),
		logger:   cfg.Logger,
		lifetime: ctx,
		endLife:  cancel,
		jobs:     make(map[string]*Job),
		byKey:    make(map[string]*Job),
		finished: list.New(),
		queue:    make(chan *Job, cfg.QueueDepth),
		started:  time.Now(),

		cells:     experiments.NewPool(0),
		tempSpool: tempSpool,
	}, nil
}

// Store returns the durable result store (nil when disabled).
func (s *Server) Store() *store.Store { return s.store }

// Telemetry returns the daemon's stage-latency collector (the /metrics
// Prometheus exposition renders it).
func (s *Server) Telemetry() *telemetry.Collector { return s.tel }

// Start launches the worker pool. It must be called exactly once.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.runJob(job)
			}
		}()
	}
	s.logger.Info("hvcd started",
		"workers", s.cfg.Workers, "queue_depth", s.cfg.QueueDepth,
		"cache_entries", s.cfg.CacheEntries, "spool", s.cfg.SpoolDir)
}

// Submission outcomes beyond plain errors.
var (
	// ErrQueueFull is returned when the bounded queue rejects a job —
	// the HTTP layer maps it to 429 with Retry-After.
	ErrQueueFull = errors.New("job queue is full")
	// ErrDraining is returned once Drain has begun — mapped to 503.
	ErrDraining = errors.New("server is draining")
)

// SubmitResult reports how a submission was satisfied.
type SubmitResult struct {
	Job *Job
	// Fresh means a new job was queued; false means the submission was
	// coalesced onto an existing job or served from the store.
	Fresh bool
	// Lineage is this submission's lineage ID (distinct per request even
	// when the job is shared); Origin is the lineage of the run that
	// produced — or will produce — the result: the request's own lineage
	// for fresh jobs, the live job's for coalesced submissions, and the
	// producing run's for cache hits.
	Lineage string
	Origin  string
}

// Submit schedules a job spec under a freshly minted lineage ID. See
// SubmitWithLineage.
func (s *Server) Submit(spec JobSpec) (SubmitResult, error) {
	return s.SubmitWithLineage(spec, telemetry.NewLineageID())
}

// SubmitWithLineage validates, normalizes and schedules a job spec.
// Identical specs deduplicate through the content-addressed key: a key
// with a live (queued/running) or finished (done) job coalesces onto it,
// a key with a stored result gets a job born done, and only genuinely
// new work is enqueued. A full queue returns ErrQueueFull; a draining
// server ErrDraining. lineage identifies this submission in logs and
// traces (empty mints one).
func (s *Server) SubmitWithLineage(spec JobSpec, lineage string) (SubmitResult, error) {
	if lineage == "" {
		lineage = telemetry.NewLineageID()
	}
	arrived := time.Now()
	if err := spec.Normalize(); err != nil {
		return SubmitResult{}, err
	}
	key := spec.CacheKey()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return SubmitResult{}, ErrDraining
	}
	s.met.submitted.Add(1)

	// Coalesce onto a job with the same key: queued or running (the
	// submitter shares its id and will see its result), or done (its
	// result is the cached result, and the job becomes the most recently
	// used). Failed/canceled jobs do not absorb resubmissions — the user
	// is asking to try again.
	if prev, ok := s.byKey[key]; ok {
		switch prev.State() {
		case StateQueued, StateRunning:
			s.met.deduped.Add(1)
			s.logJob(prev, lineage, "submitted",
				"coalesced", true, "origin", prev.Lineage)
			return SubmitResult{Job: prev, Lineage: lineage, Origin: prev.Lineage}, nil
		case StateDone:
			s.met.deduped.Add(1)
			s.met.hits.Add(1)
			s.finished.MoveToFront(prev.elem)
			s.tel.ObserveCacheServe(time.Since(arrived))
			s.logJob(prev, lineage, "submitted",
				"cache_hit", true, "origin", prev.Lineage)
			return SubmitResult{Job: prev, Lineage: lineage, Origin: prev.Lineage}, nil
		}
	}
	s.met.misses.Add(1)

	// The durable store. A hit means an earlier life of this daemon, a
	// finished job that has aged out, or another daemon sharing the store
	// directory produced this exact result — serve it and record
	// provenance=disk in the lineage chain.
	if s.store != nil {
		if rec, ok := s.store.Get(key); ok {
			return s.serveCachedLocked(spec, key, lineage, arrived, rec), nil
		}
	}

	job := newJob(s.newID(), key, lineage, spec, s.lifetime)
	select {
	case s.queue <- job:
	default:
		s.met.queueFull.Add(1)
		job.cancel()
		return SubmitResult{}, ErrQueueFull
	}
	job.armDeadline(s.cfg.JobTimeout)
	s.register(job)
	s.logJob(job, "", "submitted")
	return SubmitResult{Job: job, Fresh: true, Lineage: lineage, Origin: lineage}, nil
}

// serveCachedLocked answers a submission from a stored record: a job
// born done with provenance "disk", registered under key and filed as
// the most recently used finished job. The caller holds s.mu.
func (s *Server) serveCachedLocked(spec JobSpec, key, lineage string, arrived time.Time, rec store.Record) SubmitResult {
	job := newJob(s.newID(), key, lineage, spec, s.lifetime)
	job.finishCached(rec.Report, rec.Tables, rec.Intervals, rec.Lineage)
	s.register(job)
	s.fileLocked(job)
	s.tel.ObserveCacheServe(time.Since(arrived))
	s.logJob(job, "", "submitted", "cache_hit", true, "provenance", "disk", "origin", rec.Lineage)
	return SubmitResult{Job: job, Lineage: lineage, Origin: rec.Lineage}
}

// logJob emits one structured lifecycle record: every line carries the
// lineage ID, job ID, spec key and what the job is (org or experiment),
// so a single lineage grep reconstructs a request's whole life. A
// non-empty lineage overrides the job's own (a coalesced submission logs
// under its own lineage ID, with the job's as "origin" in extra).
func (s *Server) logJob(job *Job, lineage, event string, extra ...any) {
	if lineage == "" {
		lineage = job.Lineage
	}
	attrs := make([]any, 0, 10+len(extra))
	attrs = append(attrs, "event", event, "job", job.ID,
		"lineage", lineage, "key", job.Key, "kind", job.Spec.Kind)
	if job.Spec.Kind == KindSweep {
		attrs = append(attrs, "experiment", job.Spec.Experiment)
	} else {
		attrs = append(attrs, "org", job.Spec.Org)
	}
	attrs = append(attrs, extra...)
	s.logger.Info("job "+event, attrs...)
}

// register indexes a job; the caller holds s.mu.
func (s *Server) register(job *Job) {
	s.jobs[job.ID] = job
	s.byKey[job.Key] = job
}

// finish moves job to a terminal state and, if this call made the
// transition, calls count (when non-nil) to count the outcome and files
// the job as the most recently used finished job. All of it happens under
// s.mu, which every transition of a registered job holds, and count runs
// before the transition wakes the job's watchers. So a submission never
// sees a done job that is not filed, a client that sees the outcome also
// sees it counted, and a job finished twice (a drain past its deadline,
// then the job's worker) is counted and filed once. It reports whether
// the transition was this call's.
func (s *Server) finish(job *Job, state string, report []byte, tables []string, errMsg string, count func()) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if terminal(job.State()) {
		return false
	}
	if count != nil {
		count()
	}
	job.finish(state, report, tables, errMsg)
	s.fileLocked(job)
	return true
}

// countCanceled, countFailed and countDeadline are finish's counts for a
// canceled job, a failed one, and one failed by its deadline.
func (s *Server) countCanceled() { s.met.canceled.Add(1) }
func (s *Server) countFailed()   { s.met.failed.Add(1) }
func (s *Server) countDeadline() {
	s.met.deadlines.Add(1)
	s.met.failed.Add(1)
}

// fileLocked puts a terminal job at the front of the finished list and
// ages out the least recently used past cfg.CacheEntries: it leaves jobs,
// and byKey when the key still names it. The caller holds s.mu.
func (s *Server) fileLocked(job *Job) {
	job.elem = s.finished.PushFront(job)
	for s.finished.Len() > s.cfg.CacheEntries {
		old := s.finished.Remove(s.finished.Back()).(*Job)
		delete(s.jobs, old.ID)
		if s.byKey[old.Key] == old {
			delete(s.byKey, old.Key)
		}
	}
}

func (s *Server) newID() string {
	return fmt.Sprintf("j-%d", s.nextID.Add(1))
}

// Job returns the job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every known job, oldest first (by numeric id).
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool {
		return jobSeq(out[a].ID) < jobSeq(out[b].ID)
	})
	return out
}

func jobSeq(id string) uint64 {
	var n uint64
	fmt.Sscanf(strings.TrimPrefix(id, "j-"), "%d", &n)
	return n
}

// Cancel cancels the job by ID. It reports whether the job exists and
// whether it was still cancelable (non-terminal).
func (s *Server) Cancel(id string) (found, canceled bool) {
	j, ok := s.Job(id)
	if !ok {
		return false, false
	}
	if terminal(j.State()) {
		return true, false
	}
	j.Cancel()
	return true, true
}

// MetricsSnapshot captures the daemon counters.
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	s.mu.Lock()
	jobs, finished, draining := len(s.jobs), s.finished.Len(), s.draining
	s.mu.Unlock()
	var storeMet *store.Metrics
	if s.store != nil {
		m := s.store.Metrics()
		storeMet = &m
	}
	return MetricsSnapshot{
		Submitted:   s.met.submitted.Load(),
		Deduped:     s.met.deduped.Load(),
		CacheHits:   s.met.hits.Load(),
		CacheMisses: s.met.misses.Load(),
		CacheLen:    finished,
		Simulated:   s.met.simulated.Load(),
		Sweeps:      s.met.sweeps.Load(),
		Completed:   s.tel.Completed(),
		Failed:      s.met.failed.Load(),
		Canceled:    s.met.canceled.Load(),
		QueueFull:   s.met.queueFull.Load(),
		QueueDepth:  len(s.queue),
		Jobs:        jobs,
		Workers:     s.cfg.Workers,
		WorkersBusy: int(s.met.busy.Load()),
		Draining:    draining,
		UptimeSec:   int64(time.Since(s.started).Seconds()),

		DeadlineExceeded: s.met.deadlines.Load(),
		Store:            storeMet,
	}
}

// Drain gracefully stops the server: new submissions are refused with
// ErrDraining, the queue is closed, every non-terminal job's context is
// cancelled — a running simulation, and every running cell of a sweep,
// quiesces at its next chunk boundary, while a sweep's checkpoint journal
// (keyed by cache key in the spool dir) retains every completed cell, so
// resubmitting the same spec after a restart resumes rather than
// restarts — and the workers are awaited until ctx expires. A spool dir
// that New created is removed: no later process could find it.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	close(s.queue) // Submit holds s.mu while sending, so this is safe
	var live []*Job
	for _, j := range s.jobs {
		if !terminal(j.State()) {
			live = append(live, j)
		}
	}
	s.mu.Unlock()

	s.logger.Info("hvcd draining", "live_jobs", len(live))
	for _, j := range live {
		j.Cancel()
	}

	waited := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(waited)
	}()
	var err error
	select {
	case <-waited:
	case <-ctx.Done():
		err = fmt.Errorf("service: drain: %w", ctx.Err())
	}
	s.endLife()
	// Queued jobs the workers never picked up die with the lifetime
	// context; mark them canceled so watchers unblock.
	for _, j := range s.Jobs() {
		if s.finish(j, StateCanceled, nil, nil, "server drained", s.countCanceled) {
			s.logJob(j, "", "canceled", "error", "server drained")
		}
	}
	if s.tempSpool != "" {
		os.RemoveAll(s.tempSpool)
	}
	return err
}

// runJob executes one job on a worker. It counts and logs the job's
// outcome only when its finish makes the transition: a drain may already
// have marked the job canceled.
func (s *Server) runJob(job *Job) {
	s.met.busy.Add(1)
	defer s.met.busy.Add(-1)
	if !job.start() {
		if job.Expired() {
			// The deadline fired while the job sat in the queue.
			const msg = "job deadline exceeded while queued"
			if s.finish(job, StateFailed, nil, nil, msg, s.countDeadline) {
				s.logJob(job, "", "failed", "error", msg)
			}
			return
		}
		// Cancelled while queued.
		if s.finish(job, StateCanceled, nil, nil, "canceled before start", s.countCanceled) {
			s.logJob(job, "", "canceled", "error", "canceled before start")
		}
		return
	}
	queueWait, _, _ := job.latencies(time.Now())
	s.logJob(job, "", "running", "queue_wait_s", queueWait.Seconds())

	var (
		report []byte
		tables []string
		err    error
	)
	switch job.Spec.Kind {
	case KindSweep:
		tables, err = s.runSweep(job)
	default:
		report, err = s.runSim(job)
	}

	switch {
	case err == nil:
		if s.store != nil {
			// Durable tier is best-effort on the write path: a failed write
			// (full disk, injected fault) costs warm restarts, not this
			// result.
			rec := store.Record{Key: job.Key, Report: report, Tables: tables, Lineage: job.Lineage}
			if tl := job.timeline(); tl != nil {
				rec.Intervals = tl.Intervals()
			}
			if perr := s.store.Put(rec); perr != nil {
				s.logger.Warn("result store write failed",
					"job", job.ID, "key", job.Key, "error", perr.Error())
			}
		}
		// finish observes the stage latencies before it wakes watchers:
		// a client that sees "done" must also see the counters agreeing.
		wait, exec, e2e := job.latencies(time.Now())
		observe := func() { s.tel.ObserveCompleted(job.Spec.Org, wait, exec, e2e) }
		if s.finish(job, StateDone, report, tables, "", observe) {
			s.logJob(job, "", "done", "queue_wait_s", wait.Seconds(),
				"exec_s", exec.Seconds(), "e2e_s", e2e.Seconds())
		}
	case job.Expired():
		// Deadline fired mid-execution: terminal failed, not canceled, so
		// watchers see the reason and resubmission runs fresh.
		if s.finish(job, StateFailed, nil, nil, "job deadline exceeded: "+err.Error(), s.countDeadline) {
			_, exec, e2e := job.latencies(time.Now())
			s.logJob(job, "", "failed", "error", "job deadline exceeded",
				"exec_s", exec.Seconds(), "e2e_s", e2e.Seconds())
		}
	case job.ctx.Err() != nil:
		if s.finish(job, StateCanceled, nil, nil, err.Error(), s.countCanceled) {
			_, exec, e2e := job.latencies(time.Now())
			s.logJob(job, "", "canceled", "error", err.Error(),
				"exec_s", exec.Seconds(), "e2e_s", e2e.Seconds())
		}
	default:
		if s.finish(job, StateFailed, nil, nil, err.Error(), s.countFailed) {
			_, exec, e2e := job.latencies(time.Now())
			s.logJob(job, "", "failed", "error", err.Error(),
				"exec_s", exec.Seconds(), "e2e_s", e2e.Seconds())
		}
	}
}

// runSim executes a sim job. The simulator is driven directly rather
// than through System.Run so the timeline is streamable while the run is
// in flight; cancelling the job's context quiesces it at a chunk
// boundary. A panic fails the job instead of the daemon.
func (s *Server) runSim(job *Job) (report []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("simulation panic: %v\n%s", r, debug.Stack())
		}
	}()
	spec := job.Spec
	sys, err := hybridvc.New(hybridvc.Config{
		Org:               hybridvc.Organization(spec.Org),
		Cores:             spec.Cores,
		LLCBytes:          spec.LLCBytes,
		DelayedTLBEntries: spec.DelayedTLBEntries,
		IndexCacheBytes:   spec.IndexCacheBytes,
		Seed:              spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	for _, name := range spec.Workloads {
		if err := sys.LoadWorkload(name); err != nil {
			return nil, err
		}
	}
	simCfg := sim.DefaultConfig()
	simCfg.Interval = spec.Interval
	simulator := sim.New(simCfg, sys.Mem, sys.Generators())
	job.setTimeline(simulator.Timeline())

	s.met.simulated.Add(1)
	rep, err := simulator.RunContext(job.ctx, spec.Instructions)
	if err != nil {
		return nil, err
	}
	return []byte(rep.JSON()), nil
}

// runSweep executes a sweep job through the experiment registry under the
// job's own context and checkpoint journal, on the cell pool every sweep
// shares. The journal is content-addressed in the spool dir, so a sweep
// cancelled by drain resumes its completed cells when the same spec is
// resubmitted.
func (s *Server) runSweep(job *Job) ([]string, error) {
	e, ok := experiments.Lookup(job.Spec.Experiment)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", job.Spec.Experiment) // unreachable post-Normalize
	}

	ckpt := filepath.Join(s.cfg.SpoolDir, job.Key+".ndjson")
	job.setCheckpoint(ckpt)
	s.met.sweeps.Add(1)
	tables, err := e.Run(job.Spec.ExperimentScale(), experiments.RunOptions{
		Ctx: job.ctx, Checkpoint: ckpt, Pool: s.cells,
	})
	if err != nil {
		return nil, err
	}
	rendered := make([]string, len(tables))
	for i, t := range tables {
		rendered[i] = t.String()
	}
	// The sweep completed; its journal has served its purpose.
	os.Remove(ckpt)
	job.setCheckpoint("")
	return rendered, nil
}
