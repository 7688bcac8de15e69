package telemetry

import (
	"sort"
	"sync"
	"time"

	"hybridvc/internal/stats"
)

// DefaultLatencyBounds are the per-stage latency bucket upper bounds in
// microseconds: 100µs to 60s, roughly logarithmic. Simulations span
// milliseconds (cache-served jobs) to minutes (full-scale sweeps), so
// the range must cover both without an explosion of buckets.
var DefaultLatencyBounds = []uint64{
	100, 250, 500, // sub-millisecond: cache-hit serves
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, // 1–50ms: queue waits
	100_000, 250_000, 500_000, // 0.1–0.5s: quick sims
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 30_000_000, 60_000_000, // 1–60s
}

// Collector accumulates the per-job lifecycle-stage latency histograms
// the daemon exposes at /metrics. All histograms observe microseconds
// (render with LatencyScale). One mutex guards every histogram so a
// single ObserveCompleted is atomic with respect to Snapshot: a scrape
// can never see the queue-wait, execute and end-to-end families
// disagreeing about how many jobs completed.
type Collector struct {
	mu         sync.Mutex
	queueWait  *stats.Histogram            // queued → running, completed jobs only
	execute    *stats.Histogram            // running → done
	endToEnd   *stats.Histogram            // submit → done
	cacheServe *stats.Histogram            // submit → born-done (dedup-done or cache hit)
	simulate   map[string]*stats.Histogram // execute latency by org, sim jobs
}

// NewCollector builds a collector on DefaultLatencyBounds.
func NewCollector() *Collector {
	return &Collector{
		queueWait:  stats.NewHistogram(DefaultLatencyBounds...),
		execute:    stats.NewHistogram(DefaultLatencyBounds...),
		endToEnd:   stats.NewHistogram(DefaultLatencyBounds...),
		cacheServe: stats.NewHistogram(DefaultLatencyBounds...),
		simulate:   make(map[string]*stats.Histogram),
	}
}

// usec clamps a duration to non-negative whole microseconds.
func usec(d time.Duration) uint64 {
	if d < 0 {
		return 0
	}
	return uint64(d / time.Microsecond)
}

// ObserveCompleted records one successfully completed job's stage
// latencies: queue wait (created→started), execution (started→finished)
// and end-to-end (created→finished). A non-empty org additionally files
// the execution latency under the per-org simulate family (sweep jobs
// pass ""). The three base families therefore stay exactly in lockstep:
// each has one observation per completed job.
func (c *Collector) ObserveCompleted(org string, queueWait, execute, endToEnd time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queueWait.Observe(usec(queueWait))
	c.execute.Observe(usec(execute))
	c.endToEnd.Observe(usec(endToEnd))
	if org != "" {
		h, ok := c.simulate[org]
		if !ok {
			// Label cardinality is bounded by the organization catalog —
			// specs are validated against it before any job runs.
			h = stats.NewHistogram(DefaultLatencyBounds...)
			c.simulate[org] = h
		}
		h.Observe(usec(execute))
	}
}

// ObserveCacheServe records the submit-to-served latency of a job that
// was born done (live-job dedup onto a finished job, or a content-
// addressed cache hit).
func (c *Collector) ObserveCacheServe(d time.Duration) {
	c.mu.Lock()
	c.cacheServe.Observe(usec(d))
	c.mu.Unlock()
}

// Completed returns the number of completed jobs observed — the single
// source of truth for the daemon's "completed" counter, so the counter
// and the histogram +Inf buckets reconcile exactly on every scrape.
func (c *Collector) Completed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.endToEnd.Count()
}

// StageSnapshot is a consistent freeze of every stage histogram.
type StageSnapshot struct {
	QueueWait  stats.HistogramSnapshot
	Execute    stats.HistogramSnapshot
	EndToEnd   stats.HistogramSnapshot
	CacheServe stats.HistogramSnapshot
	// Simulate maps organization → execute-latency snapshot.
	Simulate map[string]stats.HistogramSnapshot
}

// Orgs returns the simulate label values in sorted (deterministic
// exposition) order.
func (s StageSnapshot) Orgs() []string {
	orgs := make([]string, 0, len(s.Simulate))
	for org := range s.Simulate {
		orgs = append(orgs, org)
	}
	sort.Strings(orgs)
	return orgs
}

// Snapshot freezes all stage histograms under one lock acquisition, so
// the returned families agree with each other mid-run.
func (c *Collector) Snapshot() StageSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := StageSnapshot{
		QueueWait:  c.queueWait.Snapshot(),
		Execute:    c.execute.Snapshot(),
		EndToEnd:   c.endToEnd.Snapshot(),
		CacheServe: c.cacheServe.Snapshot(),
		Simulate:   make(map[string]stats.HistogramSnapshot, len(c.simulate)),
	}
	for org, h := range c.simulate {
		snap.Simulate[org] = h.Snapshot()
	}
	return snap
}
