// End-to-end tests of the hvcd service through its HTTP API, using the
// same client package cmd/hvcctl is built on. The concurrency-heavy
// cases double as the -race integration suite (see make race / make ci).
package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridvc"
	"hybridvc/experiments"
	"hybridvc/internal/service"
	"hybridvc/internal/service/client"
	"hybridvc/internal/stats"
)

// startServer builds a Server on cfg, wraps it in an httptest server and
// returns a client pointed at it. Cleanup drains with a deadline.
func startServer(t *testing.T, cfg service.Config) (*service.Server, *client.Client) {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return srv, client.New(ts.URL, nil)
}

// waitState polls until the job reaches want (or any terminal state) and
// returns the final status.
func waitState(t *testing.T, c *client.Client, id, want string) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		switch st.State {
		case want, service.StateDone, service.StateFailed, service.StateCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitTwiceServedFromCache is the acceptance path: submitting the
// same spec twice must return byte-identical report JSON with the second
// submission served from the cache — exactly one simulation executes,
// asserted through the daemon's own counters.
func TestSubmitTwiceServedFromCache(t *testing.T) {
	srv, c := startServer(t, service.Config{Workers: 2})
	ctx := context.Background()
	spec := service.JobSpec{Instructions: 60_000, Seed: 7}

	first, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Deduped {
		t.Fatalf("first submission not fresh: %+v", first)
	}
	st1, err := c.Watch(ctx, first.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st1.State != service.StateDone {
		t.Fatalf("first job finished %s (%s)", st1.State, st1.Error)
	}
	if len(st1.Report) == 0 {
		t.Fatal("done job has no report")
	}
	if st1.Intervals == 0 {
		t.Error("sim job recorded no timeline intervals")
	}

	second, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatalf("second submission not served from cache: %+v", second)
	}
	if second.Key != first.Key {
		t.Errorf("key changed between identical submissions: %s vs %s", first.Key, second.Key)
	}
	st2, err := c.Job(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st1.Report, st2.Report) {
		t.Errorf("cached report differs from original:\n%s\nvs\n%s", st1.Report, st2.Report)
	}

	m := srv.MetricsSnapshot()
	if m.Simulated != 1 {
		t.Errorf("simulated = %d, want exactly 1 (second submission must not re-simulate)", m.Simulated)
	}
	if m.CacheHits < 1 {
		t.Errorf("cache hits = %d, want >= 1", m.CacheHits)
	}
	if m.Submitted != 2 || m.Completed != 1 {
		t.Errorf("submitted/completed = %d/%d, want 2/1", m.Submitted, m.Completed)
	}

	// The counters must agree over HTTP too (client → /metrics exposition).
	body, err := c.MetricsProm(ctx)
	if err != nil {
		t.Fatal(err)
	}
	simulated, workers := promValue(t, body, "hvcd_simulated_total"), promValue(t, body, "hvcd_workers")
	if simulated != 1 || workers != 2 {
		t.Errorf("/metrics simulated/workers = %v/%v, want 1/2", simulated, workers)
	}
}

// TestCatalogEndpoints sanity-checks the discovery surface the client and
// hvcctl rely on.
func TestCatalogEndpoints(t *testing.T) {
	_, c := startServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	cat, err := c.Orgs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Organizations) == 0 || len(cat.Workloads) == 0 {
		t.Fatalf("catalog empty: %d orgs, %d workloads", len(cat.Organizations), len(cat.Workloads))
	}
	for _, w := range cat.Workloads {
		if len(w.Digest) != 64 {
			t.Errorf("workload %s digest %q is not a sha256 hex", w.Name, w.Digest)
		}
	}

	exps, err := c.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) == 0 {
		t.Error("no experiments listed")
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Draining {
		t.Errorf("health = %+v, want ok", h)
	}
}

// TestOrgsCatalogMatchesOrganizations pins the discovery contract: the
// /v1/orgs organization list is generated from hybridvc.Organizations(),
// so a newly registered organization (the typed-payload designs victima
// and rlt-vc being the latest) appears to service clients automatically,
// in canonical order and with the right virtualization flag — no schema
// bump, no hand-maintained list to drift.
func TestOrgsCatalogMatchesOrganizations(t *testing.T) {
	_, c := startServer(t, service.Config{Workers: 1})
	cat, err := c.Orgs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := hybridvc.Organizations()
	if len(cat.Organizations) != len(want) {
		t.Fatalf("/v1/orgs lists %d organizations, registry has %d", len(cat.Organizations), len(want))
	}
	seen := map[string]bool{}
	for i, o := range cat.Organizations {
		if o.Name != string(want[i]) {
			t.Errorf("org %d = %q, want %q (canonical order)", i, o.Name, want[i])
		}
		if o.Virtualized != want[i].Virtualized() {
			t.Errorf("org %s virtualized = %v, want %v", o.Name, o.Virtualized, want[i].Virtualized())
		}
		seen[o.Name] = true
	}
	for _, name := range []string{"victima", "rlt-vc"} {
		if !seen[name] {
			t.Errorf("newly added organization %q missing from /v1/orgs", name)
		}
	}
}

// TestTimelineStreaming streams a job's NDJSON timeline while it runs and
// checks the stream is gapless and sums to the final report.
func TestTimelineStreaming(t *testing.T) {
	_, c := startServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	resp, err := c.Submit(ctx, service.JobSpec{Instructions: 100_000, Interval: 5_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []stats.Interval
	if err := c.Timeline(ctx, resp.ID, true, func(iv stats.Interval) error {
		streamed = append(streamed, iv)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) == 0 {
		t.Fatal("streamed no intervals")
	}
	var insns uint64
	for i, iv := range streamed {
		if iv.Index != i {
			t.Fatalf("interval %d has index %d: stream is gappy or out of order", i, iv.Index)
		}
		insns += iv.Insns
	}
	st, err := c.Watch(ctx, resp.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Instructions uint64 `json:"instructions"`
	}
	if err := json.Unmarshal(st.Report, &rep); err != nil {
		t.Fatalf("report: %v", err)
	}
	if insns != rep.Instructions {
		t.Errorf("streamed insns %d != report instructions %d", insns, rep.Instructions)
	}

	// A cache-served resubmission must stream the same recorded timeline.
	resp2, err := c.Submit(ctx, service.JobSpec{Instructions: 100_000, Interval: 5_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var replayed int
	if err := c.Timeline(ctx, resp2.ID, false, func(stats.Interval) error {
		replayed++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if replayed != len(streamed) {
		t.Errorf("cached job replayed %d intervals, original streamed %d", replayed, len(streamed))
	}
}

// TestCancelUnbindsKey cancels a running job and checks that the spec can
// be resubmitted fresh (a canceled job must not satisfy future
// submissions from the dedup index).
func TestCancelUnbindsKey(t *testing.T) {
	srv, c := startServer(t, service.Config{Workers: 1})
	ctx := context.Background()
	spec := service.JobSpec{Instructions: 500_000_000, Seed: 11}

	resp, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, resp.ID, service.StateRunning)
	if err := c.Cancel(ctx, resp.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Watch(ctx, resp.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateCanceled {
		t.Fatalf("state after cancel = %s (%s)", st.State, st.Error)
	}

	// Cancelling a terminal job is a conflict, not a success.
	if err := c.Cancel(ctx, resp.ID); err == nil {
		t.Error("second cancel of a terminal job succeeded")
	}

	resp2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Cached || resp2.Deduped || resp2.ID == resp.ID {
		t.Errorf("resubmission after cancel coalesced onto the corpse: %+v", resp2)
	}
	if err := c.Cancel(ctx, resp2.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Watch(ctx, resp2.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if m := srv.MetricsSnapshot(); m.Canceled != 2 {
		t.Errorf("canceled = %d, want 2", m.Canceled)
	}
}

// TestQueueBackpressure fills the 1-deep queue behind a busy worker and
// checks the daemon answers 429 with Retry-After instead of queueing
// unboundedly.
func TestQueueBackpressure(t *testing.T) {
	srv, c := startServer(t, service.Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()
	long := func(seed int64) service.JobSpec {
		return service.JobSpec{Instructions: 500_000_000, Seed: seed}
	}

	a, err := c.Submit(ctx, long(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, a.ID, service.StateRunning)
	b, err := c.Submit(ctx, long(2))
	if err != nil {
		t.Fatal(err)
	}

	_, err = c.Submit(ctx, long(3))
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != 429 {
		t.Fatalf("submit into full queue: %v, want 429", err)
	}
	if !apiErr.IsRetryable() || apiErr.RetryAfter <= 0 {
		t.Errorf("429 not retryable with Retry-After: %+v", apiErr)
	}
	if m := srv.MetricsSnapshot(); m.QueueFull != 1 {
		t.Errorf("queue_full = %d, want 1", m.QueueFull)
	}

	for _, id := range []string{a.ID, b.ID} {
		if err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Watch(ctx, id, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitPastLimitIs400 checks that a sim spec the simulator could not
// build, or one past a job limit, is refused at submission with a 400 that
// names the field, instead of being queued to fail or to exhaust a worker.
func TestSubmitPastLimitIs400(t *testing.T) {
	srv, c := startServer(t, service.Config{Workers: 1})
	for _, tc := range []struct {
		spec  service.JobSpec
		field string
	}{
		{service.JobSpec{LLCBytes: 12345}, "llc_bytes"},
		{service.JobSpec{Cores: 1_000_000}, "cores"},
		{service.JobSpec{LLCBytes: 1 << 40}, "llc_bytes"},
	} {
		_, err := c.Submit(context.Background(), tc.spec)
		apiErr, ok := err.(*client.APIError)
		if !ok || apiErr.StatusCode != 400 || !strings.Contains(apiErr.Message, tc.field) {
			t.Errorf("submit %+v: %v, want a 400 naming %s", tc.spec, err, tc.field)
		}
	}
	if m := srv.MetricsSnapshot(); m.Simulated != 0 {
		t.Errorf("simulated = %d, want 0", m.Simulated)
	}
}

// TestDrain checks graceful shutdown: running jobs are cancelled, new
// submissions answer 503, health reports draining, and readiness turns
// from 200 ready to 503 draining.
func TestDrain(t *testing.T) {
	srv, c := startServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	resp, err := c.Submit(ctx, service.JobSpec{Instructions: 500_000_000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, resp.ID, service.StateRunning)
	checkReady(t, c, http.StatusOK, service.ReadyResponse{Status: "ready"})

	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	st, err := c.Job(ctx, resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateCanceled {
		t.Errorf("job state after drain = %s", st.State)
	}

	_, err = c.Submit(ctx, service.JobSpec{Seed: 22})
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 503 {
		t.Errorf("submit while draining: %v, want 503", err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" || !h.Draining {
		t.Errorf("health while draining = %+v", h)
	}
	checkReady(t, c, http.StatusServiceUnavailable, service.ReadyResponse{Status: "draining", Draining: true})
}

// checkReady requires GET /readyz to answer code, and client.Ready, which
// returns a 503's body rather than an error, to decode want.
func checkReady(t *testing.T, c *client.Client, code int, want service.ReadyResponse) {
	t.Helper()
	resp, err := http.Get(c.Base() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != code {
		t.Errorf("/readyz answered %d, want %d", resp.StatusCode, code)
	}
	got, err := c.Ready(context.Background())
	if err != nil || got != want {
		t.Errorf("client.Ready = %+v, %v; want %+v", got, err, want)
	}
}

// decodeString restores a checkpointed string cell value.
func decodeString(b []byte) (any, error) {
	var s string
	err := json.Unmarshal(b, &s)
	return s, err
}

// The sweep drain/resume test registers one synthetic experiment: three
// cells return instantly, the last blocks on sweepGate until the test
// releases it or its sweep is cancelled. Run counts prove which cells
// re-executed after resume.
// Each run of the test installs a fresh gate and zeroes the counts, so it
// repeats under -count.
var (
	registerSweepExp sync.Once
	sweepGate        atomic.Value // chan struct{}
	sweepCellRuns    [4]atomic.Int32
)

func sweepExpName() string {
	registerSweepExp.Do(func() {
		err := experiments.Add(experiments.Experiment{
			Name:        "svc-test-exp",
			Description: "service drain/resume fixture",
			Run: func(_ experiments.Scale, opts experiments.RunOptions) ([]*stats.Table, error) {
				cells := make([]experiments.Cell, len(sweepCellRuns))
				for i := range cells {
					cells[i] = experiments.Cell{
						Label: fmt.Sprintf("svc-test/cell%d", i),
						Fn: func(ctx context.Context) (any, error) {
							sweepCellRuns[i].Add(1)
							if i == len(cells)-1 {
								select {
								case <-sweepGate.Load().(chan struct{}):
								case <-ctx.Done():
									return nil, ctx.Err()
								}
							}
							return fmt.Sprintf("v%d", i), nil
						},
						DecodeValue: decodeString,
					}
				}
				res, err := experiments.RunCells(cells, opts)
				if err != nil {
					return nil, err
				}
				tbl := stats.NewTable("svc-test", "cell", "value")
				for i, r := range res {
					tbl.AddRow(fmt.Sprintf("cell%d", i), fmt.Sprint(r.Value))
				}
				return []*stats.Table{tbl}, nil
			},
		})
		if err != nil {
			panic(err)
		}
	})
	return "svc-test-exp"
}

// TestSweepDrainCheckpointResume is the daemon-restart story: a sweep
// interrupted by drain leaves its content-addressed checkpoint journal in
// the spool dir, and resubmitting the same spec to a new server on the
// same spool resumes the journaled cells instead of re-running them.
func TestSweepDrainCheckpointResume(t *testing.T) {
	gate := make(chan struct{})
	sweepGate.Store(gate)
	for i := range sweepCellRuns {
		sweepCellRuns[i].Store(0)
	}
	spool := t.TempDir()
	spec := service.JobSpec{Kind: service.KindSweep, Experiment: sweepExpName()}
	ctx := context.Background()

	srv1, c1 := startServer(t, service.Config{Workers: 1, SpoolDir: spool})
	resp, err := c1.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(spool, resp.Key+".ndjson")

	// Wait until the three ungated cells are journaled (the fourth blocks
	// on sweepGate, pinning the sweep mid-flight).
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(journal); err == nil &&
			strings.Count(string(data), "\n") >= len(sweepCellRuns)-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint journal never reached 3 records")
		}
		time.Sleep(5 * time.Millisecond)
	}

	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv1.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st, err := c1.Job(ctx, resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateCanceled {
		t.Fatalf("sweep state after drain = %s (%s)", st.State, st.Error)
	}
	if st.Checkpoint == "" {
		t.Error("drained sweep reports no checkpoint path")
	}
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("journal gone after drain: %v", err)
	}

	// "Restart": a fresh server over the same spool dir. Release the gate
	// so the one unjournaled cell can finish this time.
	close(gate)
	_, c2 := startServer(t, service.Config{Workers: 1, SpoolDir: spool})
	resp2, err := c2.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c2.Watch(ctx, resp2.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != service.StateDone {
		t.Fatalf("resumed sweep finished %s (%s)", st2.State, st2.Error)
	}
	if len(st2.Tables) != 1 || !strings.Contains(st2.Tables[0], "v3") {
		t.Errorf("resumed sweep tables wrong: %q", st2.Tables)
	}
	for i := 0; i < len(sweepCellRuns)-1; i++ {
		if n := sweepCellRuns[i].Load(); n != 1 {
			t.Errorf("cell %d ran %d times; journaled cells must not re-run on resume", i, n)
		}
	}
	if n := sweepCellRuns[len(sweepCellRuns)-1].Load(); n != 2 {
		t.Errorf("gated cell ran %d times, want 2 (cancelled attempt + resume)", n)
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("journal not removed after successful resume: %v", err)
	}
}

// The concurrent-sweep test registers two synthetic experiments, one per
// sweep job. Every cell waits until both sweeps have started (pairBoth),
// and each sweep's last cell also waits for pairHold, so the test can
// inspect both journals while both sweeps are mid-flight.
var (
	registerPair sync.Once
	pairStarts   atomic.Int32
	pairBoth     atomic.Value // chan struct{}, closed by the second sweep to start
	pairHold     atomic.Value // chan struct{}
)

// pairWait blocks until ch closes or the sweep is cancelled. The timeout
// turns sweeps that can never overlap into a failure instead of a hang.
func pairWait(ctx context.Context, ch chan struct{}) error {
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(30 * time.Second):
		return fmt.Errorf("the two sweeps never ran at the same time")
	}
}

func pairExperiment(name string) experiments.Experiment {
	return experiments.Experiment{
		Name:        name,
		Description: "service concurrent-sweep fixture",
		Run: func(_ experiments.Scale, opts experiments.RunOptions) ([]*stats.Table, error) {
			if pairStarts.Add(1) == 2 {
				close(pairBoth.Load().(chan struct{}))
			}
			cells := make([]experiments.Cell, 3)
			for i := range cells {
				cells[i] = experiments.Cell{
					Label: fmt.Sprintf("%s/cell%d", name, i),
					Fn: func(ctx context.Context) (any, error) {
						if err := pairWait(ctx, pairBoth.Load().(chan struct{})); err != nil {
							return nil, err
						}
						if i == len(cells)-1 {
							if err := pairWait(ctx, pairHold.Load().(chan struct{})); err != nil {
								return nil, err
							}
						}
						return fmt.Sprintf("%s-v%d", name, i), nil
					},
					DecodeValue: decodeString,
				}
			}
			res, err := experiments.RunCells(cells, opts)
			if err != nil {
				return nil, err
			}
			tbl := stats.NewTable(name, "cell", "value")
			for i, r := range res {
				tbl.AddRow(fmt.Sprintf("cell%d", i), fmt.Sprint(r.Value))
			}
			return []*stats.Table{tbl}, nil
		},
	}
}

// resetPair arms the fixture: both=false makes the cells wait for two
// sweeps, hold=false holds each sweep's last cell.
func resetPair(both, hold bool) {
	registerPair.Do(func() {
		for _, name := range []string{"svc-test-pair-a", "svc-test-pair-b"} {
			if err := experiments.Add(pairExperiment(name)); err != nil {
				panic(err)
			}
		}
	})
	pairStarts.Store(0)
	pairBoth.Store(newGate(both))
	pairHold.Store(newGate(hold))
}

func newGate(open bool) chan struct{} {
	ch := make(chan struct{})
	if open {
		close(ch)
	}
	return ch
}

// journalLines waits until the journal at path holds n records and
// returns them.
func journalLines(t *testing.T, path string, n int) []string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		data, _ := os.ReadFile(path)
		if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(data) > 0 && len(lines) >= n {
			return lines
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal %s never reached %d records", path, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentSweepsRunIndependently runs two different sweep jobs at
// the same time on two workers. Each runs under its own context and
// journal: cancelling one leaves the other done, with the tables of the
// same sweep run alone, and each journal holds only its own cells.
func TestConcurrentSweepsRunIndependently(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// The shared cell pool has GOMAXPROCS slots; each held cell
		// keeps one, so the two sweeps need two.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	resetPair(false, false)
	ctx := context.Background()
	spool := t.TempDir()
	_, c := startServer(t, service.Config{Workers: 2, SpoolDir: spool})
	specA := service.JobSpec{Kind: service.KindSweep, Experiment: "svc-test-pair-a"}
	specB := service.JobSpec{Kind: service.KindSweep, Experiment: "svc-test-pair-b"}
	a, err := c.Submit(ctx, specA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(ctx, specB)
	if err != nil {
		t.Fatal(err)
	}

	// Both sweeps are mid-flight: two cells journaled, the last one held.
	for _, sw := range []struct{ key, exp string }{{a.Key, specA.Experiment}, {b.Key, specB.Experiment}} {
		for _, line := range journalLines(t, filepath.Join(spool, sw.key+".ndjson"), 2) {
			if !strings.Contains(line, `"label":"`+sw.exp+`/`) {
				t.Errorf("journal of %s holds a foreign record: %s", sw.exp, line)
			}
		}
	}

	if err := c.Cancel(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, c, a.ID, service.StateCanceled); st.State != service.StateCanceled {
		t.Fatalf("cancelled sweep ended %s (%s)", st.State, st.Error)
	}
	close(pairHold.Load().(chan struct{}))
	stB, err := c.Watch(ctx, b.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stB.State != service.StateDone {
		t.Fatalf("sweep beside a cancelled one ended %s (%s)", stB.State, stB.Error)
	}
	if lines := journalLines(t, filepath.Join(spool, a.Key+".ndjson"), 2); len(lines) != 2 {
		t.Errorf("cancelled sweep journaled %d cells, want its 2 completed ones", len(lines))
	}

	resetPair(true, true)
	_, alone := startServer(t, service.Config{Workers: 1})
	resp, err := alone.Submit(ctx, specB)
	if err != nil {
		t.Fatal(err)
	}
	stAlone, err := alone.Watch(ctx, resp.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stAlone.State != service.StateDone || !reflect.DeepEqual(stB.Tables, stAlone.Tables) {
		t.Errorf("sweep run beside another differs from it run alone:\n%q\nvs\n%q (%s)",
			stB.Tables, stAlone.Tables, stAlone.State)
	}
}

// TestConcurrentClients is the -race integration test: 12 concurrent
// clients submit, watch, stream, deduplicate and cancel jobs against one
// daemon, then the daemon drains under load.
func TestConcurrentClients(t *testing.T) {
	srv, c := startServer(t, service.Config{Workers: 4, QueueDepth: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const clients = 12
	const iters = 2
	shared := service.JobSpec{Instructions: 30_000, Interval: 5_000, Seed: 1000}

	var wg sync.WaitGroup
	errs := make(chan error, clients*iters*2)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch id % 3 {
				case 0: // unique spec, watch to completion
					spec := service.JobSpec{Instructions: 30_000, Interval: 5_000,
						Seed: int64(100*id + it + 1)}
					resp, err := c.SubmitWait(ctx, spec)
					if err != nil {
						errs <- fmt.Errorf("client %d submit: %w", id, err)
						return
					}
					st, err := c.Watch(ctx, resp.ID, 10*time.Millisecond)
					if err != nil {
						errs <- fmt.Errorf("client %d watch: %w", id, err)
						return
					}
					if st.State != service.StateDone {
						errs <- fmt.Errorf("client %d job %s: %s (%s)", id, resp.ID, st.State, st.Error)
						return
					}
				case 1: // shared spec: exercises dedup/coalescing + cache
					resp, err := c.SubmitWait(ctx, shared)
					if err != nil {
						errs <- fmt.Errorf("client %d shared submit: %w", id, err)
						return
					}
					var n int
					if err := c.Timeline(ctx, resp.ID, true, func(stats.Interval) error {
						n++
						return nil
					}); err != nil {
						errs <- fmt.Errorf("client %d timeline: %w", id, err)
						return
					}
					st, err := c.Watch(ctx, resp.ID, 10*time.Millisecond)
					if err != nil {
						errs <- fmt.Errorf("client %d shared watch: %w", id, err)
						return
					}
					if st.State == service.StateDone && n == 0 {
						errs <- fmt.Errorf("client %d: done shared job streamed 0 intervals", id)
						return
					}
				case 2: // submit long, cancel immediately, await terminal
					spec := service.JobSpec{Instructions: 500_000_000,
						Seed: int64(9000 + 100*id + it)}
					resp, err := c.SubmitWait(ctx, spec)
					if err != nil {
						errs <- fmt.Errorf("client %d long submit: %w", id, err)
						return
					}
					if err := c.Cancel(ctx, resp.ID); err != nil {
						// Another goroutine's duplicate may already be
						// terminal (409); only transport errors are fatal.
						if _, ok := err.(*client.APIError); !ok {
							errs <- fmt.Errorf("client %d cancel: %w", id, err)
							return
						}
					}
					if _, err := c.Watch(ctx, resp.ID, 10*time.Millisecond); err != nil {
						errs <- fmt.Errorf("client %d canceled watch: %w", id, err)
						return
					}
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := srv.MetricsSnapshot()
	if m.Failed != 0 {
		t.Errorf("failed = %d, want 0", m.Failed)
	}
	if m.Simulated == 0 || m.Submitted < clients {
		t.Errorf("implausible load counters: %+v", m)
	}
	for _, j := range srv.Jobs() {
		if s := j.State(); s == service.StateFailed {
			t.Errorf("job %s failed: %+v", j.ID, j.Status())
		}
	}
}
