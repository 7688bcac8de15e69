package service_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hybridvc/internal/service"
	"hybridvc/internal/service/client"
	"hybridvc/internal/service/store"
)

// TestCrashRestartServesFromDisk is the durable-store acceptance path: a
// daemon completes a job, is dropped SIGKILL-style (HTTP listener torn
// down, no Drain, in-memory cache gone), and a fresh daemon over the
// same store directory serves the resubmission from disk — byte-
// identical report, provenance=disk, zero new simulations.
func TestCrashRestartServesFromDisk(t *testing.T) {
	storeDir := t.TempDir()
	ctx := context.Background()
	spec := service.JobSpec{Instructions: 60_000, Interval: 5_000, Seed: 77}

	// First life: run the job for real.
	srv1, err := service.New(service.Config{
		Workers: 1, StoreDir: storeDir, SpoolDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1.Start()
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := client.New(ts1.URL, nil)
	first, err := c1.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := c1.Watch(ctx, first.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st1.State != service.StateDone || len(st1.Report) == 0 {
		t.Fatalf("first life job: %s (%s)", st1.State, st1.Error)
	}
	if m := srv1.MetricsSnapshot(); m.Simulated != 1 || m.Store == nil || m.Store.Writes != 1 {
		t.Fatalf("first life counters: %+v store=%+v", m, m.Store)
	}

	// "Crash": the listener dies with no Drain — nothing in memory
	// survives. (The worker goroutines are reaped at cleanup; the point
	// is srv2 sees only what the store made durable.)
	ts1.Close()
	t.Cleanup(func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv1.Drain(dctx)
	})

	// Second life: same store directory, cold memory.
	srv2, c2 := startServer(t, service.Config{Workers: 1, StoreDir: storeDir})
	second, err := c2.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatalf("restart resubmission not served as cached: %+v", second)
	}
	if second.Key != first.Key {
		t.Errorf("cache key changed across restart: %s vs %s", second.Key, first.Key)
	}
	st2, err := c2.Job(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Provenance != "disk" {
		t.Errorf("provenance = %q, want disk", st2.Provenance)
	}
	if !bytes.Equal(st1.Report, st2.Report) {
		t.Errorf("disk-served report differs from the original bytes:\n%s\nvs\n%s", st1.Report, st2.Report)
	}
	if st2.Intervals != st1.Intervals {
		t.Errorf("disk-served job replays %d intervals, original recorded %d", st2.Intervals, st1.Intervals)
	}
	if st2.ParentLineage != st1.Lineage {
		t.Errorf("disk-served parent lineage %q does not chain to the producing run %q",
			st2.ParentLineage, st1.Lineage)
	}

	// Exactly one simulation across both daemon lives, and the second
	// life's hit came off the disk tier.
	m2 := srv2.MetricsSnapshot()
	if m2.Simulated != 0 {
		t.Errorf("second life re-simulated %d times, want 0", m2.Simulated)
	}
	if m2.Store == nil || m2.Store.Hits != 1 {
		t.Errorf("second life store counters: %+v, want 1 hit", m2.Store)
	}
	if total := srv1.MetricsSnapshot().Simulated + m2.Simulated; total != 1 {
		t.Errorf("simulations across both lives = %d, want exactly 1", total)
	}
}

// startSharedPair boots two daemons whose -store is one directory.
func startSharedPair(t *testing.T) ([2]*service.Server, [2]*client.Client) {
	t.Helper()
	storeDir := t.TempDir()
	var srvs [2]*service.Server
	var cs [2]*client.Client
	for i := range srvs {
		srvs[i], cs[i] = startServer(t, service.Config{Workers: 1, StoreDir: storeDir})
	}
	return srvs, cs
}

// TestSharedStoreDirectory: two daemons on one store directory simulate
// each unique key once between them. Which daemon sees a key first
// rotates; the other serves that key from disk, byte-identical.
func TestSharedStoreDirectory(t *testing.T) {
	srvs, cs := startSharedPair(t)
	ctx := context.Background()
	const keys = 4
	for seed := int64(1); seed <= keys; seed++ {
		spec := service.JobSpec{Instructions: 30_000, Interval: 5_000, Seed: seed}
		first, second := cs[seed%2], cs[(seed+1)%2]

		resp1, err := first.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		st1 := waitState(t, first, resp1.ID, service.StateDone)
		if st1.State != service.StateDone || len(st1.Report) == 0 {
			t.Fatalf("seed %d first daemon: %s (%s)", seed, st1.State, st1.Error)
		}

		resp2, err := second.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !resp2.Cached || resp2.Key != resp1.Key {
			t.Fatalf("seed %d second daemon did not serve the shared record: %+v", seed, resp2)
		}
		st2, err := second.Job(ctx, resp2.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st2.Provenance != "disk" {
			t.Errorf("seed %d provenance = %q, want disk", seed, st2.Provenance)
		}
		if !bytes.Equal(st1.Report, st2.Report) {
			t.Errorf("seed %d: shared report differs from the original bytes", seed)
		}
		if st2.Intervals != st1.Intervals || st2.ParentLineage != st1.Lineage {
			t.Errorf("seed %d: shared job replays %d intervals from %q, original %d from %q",
				seed, st2.Intervals, st2.ParentLineage, st1.Intervals, st1.Lineage)
		}
	}
	if sims := srvs[0].MetricsSnapshot().Simulated + srvs[1].MetricsSnapshot().Simulated; sims != keys {
		t.Errorf("two daemons simulated %d times for %d unique keys", sims, keys)
	}
}

// TestSharedStoreFirstSubmissionRace: both daemons see the first
// submission of one key at once, so both may simulate it. The records
// are identical, so the rename race is harmless: the store ends with one
// clean record and both daemons serve the same bytes.
func TestSharedStoreFirstSubmissionRace(t *testing.T) {
	srvs, cs := startSharedPair(t)
	ctx := context.Background()
	spec := service.JobSpec{Instructions: 30_000, Seed: 42}

	var reports [2][]byte
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := c.Submit(ctx, spec)
			if err != nil {
				t.Error(err)
				return
			}
			st, err := c.Watch(ctx, resp.ID, 5*time.Millisecond)
			if err != nil || st.State != service.StateDone {
				t.Errorf("daemon %d: %v %s (%s)", i, err, st.State, st.Error)
				return
			}
			reports[i] = st.Report
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(reports[0]) == 0 || !bytes.Equal(reports[0], reports[1]) {
		t.Fatal("racing daemons serve different reports")
	}

	disk, err := store.Open(store.Options{Dir: srvs[0].Store().Dir()})
	if err != nil {
		t.Fatal(err)
	}
	if n := disk.Len(); n != 1 {
		t.Errorf("store holds %d records for one key", n)
	}
	if q := disk.Quarantined(); q != 0 {
		t.Errorf("%d records quarantined", q)
	}
	for i, srv := range srvs {
		if m := srv.Store().Metrics(); m.Corruptions != 0 {
			t.Errorf("daemon %d counted %d corrupt records", i, m.Corruptions)
		}
	}
	// Both daemons serve the settled record's bytes on resubmission.
	for i, c := range cs {
		resp, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Job(ctx, resp.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached || !bytes.Equal(st.Report, reports[0]) {
			t.Errorf("daemon %d resubmission: cached=%v, report identical=%v",
				i, resp.Cached, bytes.Equal(st.Report, reports[0]))
		}
	}
}
