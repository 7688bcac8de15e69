// The service-chaos suite (make chaos): a live hvcd daemon driven
// through seeded store faults, deadline-exceeded jobs and mid-stream
// client disconnects. Every scenario ends by proving the daemon
// converged back to healthy. Run race-enabled.
package chaos_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hybridvc/internal/service"
	"hybridvc/internal/service/chaos"
	"hybridvc/internal/service/client"
	"hybridvc/internal/stats"
)

// startServer builds and starts a daemon; the returned stop function
// drains it with a deadline (tests that "restart" call stop themselves,
// otherwise cleanup does).
func startServer(t *testing.T, cfg service.Config) (*service.Server, *client.Client, func()) {
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
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	}
	t.Cleanup(stop)
	return srv, client.New(ts.URL, nil), stop
}

// watchDone waits for the job to reach a terminal state within a bound —
// the no-deadlocked-watcher assertion every scenario leans on.
func watchDone(t *testing.T, c *client.Client, id string) service.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Watch(ctx, id, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("watcher for %s did not unblock: %v", id, err)
	}
	return st
}

func waitRunning(t *testing.T, c *client.Client, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == service.StateRunning || st.State == service.StateDone {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChaosStoreFaultsNeverServeCorrupt is the core durability scenario:
// twelve jobs run against a store whose writes fail, tear and bit-flip
// on a seeded cadence; the daemon restarts over the same directory and
// every resubmission must produce the canonical bytes — good records
// serve from disk, mangled ones quarantine and re-simulate, and no
// corrupt record is ever served.
func TestChaosStoreFaultsNeverServeCorrupt(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.New(chaos.Options{
		Seed:           42,
		FailWriteEvery: 4, // jobs 4, 8, 12: write fails, nothing durable
		TearWriteEvery: 3, // jobs 3, 6, 9: record truncated on disk
		FlipBitEvery:   5, // jobs 5, 10: record bit-flipped on disk
	})
	// Good records: jobs 1, 2, 7, 11.
	const jobs, good = 12, 4

	srv1, c1, stop1 := startServer(t, service.Config{
		Workers: 1, StoreDir: dir, StoreHooks: inj.StoreHooks(),
	})
	ctx := context.Background()
	specs := make([]service.JobSpec, jobs)
	canonical := make(map[string][]byte) // cache key → report bytes
	for i := range specs {
		specs[i] = service.JobSpec{Instructions: 30_000, Seed: int64(i + 1)}
		resp, err := c1.Submit(ctx, specs[i])
		if err != nil {
			t.Fatal(err)
		}
		st := watchDone(t, c1, resp.ID)
		if st.State != service.StateDone {
			t.Fatalf("job %d finished %s (%s)", i+1, st.State, st.Error)
		}
		canonical[resp.Key] = st.Report
	}
	counts := inj.Counts()
	if counts.Writes != jobs || counts.Failed != 3 || counts.Torn != 3 || counts.Flipped != 2 {
		t.Fatalf("injection cadence off: %+v", counts)
	}
	if m := srv1.Store().Metrics(); m.WriteErrors != uint64(counts.Failed) {
		t.Errorf("store write errors = %d, want %d injected", m.WriteErrors, counts.Failed)
	}
	stop1()

	// "Restart": a fresh daemon over the same store directory, faults
	// stopped — the convergence phase.
	inj.StopFaults()
	srv2, c2, _ := startServer(t, service.Config{
		Workers: 1, StoreDir: dir, StoreHooks: inj.StoreHooks(),
	})
	diskServed := 0
	for i, spec := range specs {
		resp, err := c2.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		st := watchDone(t, c2, resp.ID)
		if st.State != service.StateDone {
			t.Fatalf("restart job %d finished %s (%s)", i+1, st.State, st.Error)
		}
		if !bytes.Equal(st.Report, canonical[resp.Key]) {
			t.Errorf("job %d: post-restart report differs from canonical bytes", i+1)
		}
		if st.Provenance == "disk" {
			diskServed++
			if !resp.Cached {
				t.Errorf("job %d: disk-served but not reported cached", i+1)
			}
		}
	}
	if diskServed != good {
		t.Errorf("disk-served %d results, want exactly the %d uncorrupted records", diskServed, good)
	}
	m2 := srv2.Store().Metrics()
	mangled := uint64(counts.Torn + counts.Flipped)
	if m2.Corruptions != mangled {
		t.Errorf("corruptions = %d, want %d (every mangled record quarantined)", m2.Corruptions, mangled)
	}
	if q := srv2.Store().Quarantined(); q != int(mangled) {
		t.Errorf("quarantined files = %d, want %d", q, mangled)
	}
	snap := srv2.MetricsSnapshot()
	if snap.Simulated != uint64(jobs-good) {
		t.Errorf("restart re-simulated %d, want %d (only lost/corrupt records)", snap.Simulated, jobs-good)
	}
	// Healthy again: with faults stopped, every re-run was durably
	// rewritten, so the store holds all twelve records.
	if m2.WriteErrors != 0 || srv2.Store().Len() != jobs {
		t.Errorf("store did not converge: write_errors=%d records=%d, want 0/%d",
			m2.WriteErrors, srv2.Store().Len(), jobs)
	}
}

// TestChaosDeadlines: slow jobs blow a 2s per-job deadline — one
// mid-execution, one possibly still queued behind it — and both land in
// failed-with-reason, watchers unblocked, after which a quick job runs
// normally. The deadline is generous enough that a 10k-instruction job
// clears it even race-instrumented.
func TestChaosDeadlines(t *testing.T) {
	srv, c, _ := startServer(t, service.Config{
		Workers: 1, JobTimeout: 2 * time.Second,
	})
	ctx := context.Background()
	a, err := c.Submit(ctx, service.JobSpec{Instructions: service.MaxInstructions, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(ctx, service.JobSpec{Instructions: service.MaxInstructions, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{a.ID, b.ID} {
		st := watchDone(t, c, id)
		if st.State != service.StateFailed {
			t.Fatalf("job %s finished %s (%s), want failed", id, st.State, st.Error)
		}
		if !strings.Contains(st.Error, "deadline exceeded") {
			t.Errorf("job %s failure reason %q lacks the deadline", id, st.Error)
		}
	}
	if m := srv.MetricsSnapshot(); m.DeadlineExceeded != 2 || m.Failed != 2 {
		t.Errorf("deadline/failed = %d/%d, want 2/2", m.DeadlineExceeded, m.Failed)
	}

	// Convergence: a fast job under the same deadline completes, and the
	// expired specs re-run fresh rather than coalescing onto the corpses.
	quick, err := c.Submit(ctx, service.JobSpec{Instructions: 10_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st := watchDone(t, c, quick.ID); st.State != service.StateDone {
		t.Errorf("quick job under deadline finished %s (%s)", st.State, st.Error)
	}
	retry, err := c.Submit(ctx, service.JobSpec{Instructions: service.MaxInstructions, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if retry.ID == a.ID || retry.Cached || retry.Deduped {
		t.Errorf("resubmission coalesced onto an expired job: %+v", retry)
	}
	watchDone(t, c, retry.ID)
}

// TestChaosClientDisconnectMidStream: a timeline subscriber vanishing
// mid-stream must not wedge the handler, the job, or the drain path.
func TestChaosClientDisconnectMidStream(t *testing.T) {
	_, c, _ := startServer(t, service.Config{Workers: 1})
	ctx := context.Background()
	resp, err := c.Submit(ctx, service.JobSpec{Instructions: service.MaxInstructions, Interval: 5_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	streamCtx, cancelStream := context.WithCancel(ctx)
	defer cancelStream()
	got := 0
	err = c.Timeline(streamCtx, resp.ID, true, func(stats.Interval) error {
		got++
		cancelStream() // client walks away after the first frame
		return nil
	})
	if err == nil && got == 0 {
		t.Fatal("stream ended cleanly without delivering anything")
	}

	// The daemon is unaffected: job still cancelable, then a fresh job
	// completes and health stays ok. Cleanup drains — a wedged stream
	// handler would hang it.
	if err := c.Cancel(ctx, resp.ID); err != nil {
		t.Fatal(err)
	}
	if st := watchDone(t, c, resp.ID); st.State != service.StateCanceled {
		t.Errorf("job after disconnect+cancel = %s", st.State)
	}
	after, err := c.Submit(ctx, service.JobSpec{Instructions: 10_000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st := watchDone(t, c, after.ID); st.State != service.StateDone {
		t.Errorf("post-disconnect job finished %s (%s)", st.State, st.Error)
	}
	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Errorf("health after disconnect = %+v err=%v", h, err)
	}
}
