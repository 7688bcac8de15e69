package service

import (
	"bytes"
	"context"
	"os"
	"testing"
	"time"
)

// TestColdKeyCacheHit exercises the second dedup layer: when the original
// job has aged out of the dedup index, an identical submission must still
// be served byte-for-byte from the content-addressed result cache — as a
// job born done, with its recorded timeline replayable and no new
// simulation executed.
func TestColdKeyCacheHit(t *testing.T) {
	srv, err := New(Config{Workers: 1, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()

	spec := JobSpec{Instructions: 50_000, Seed: 5}
	first, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-first.Job.Done()
	st1 := first.Job.Status()
	if st1.State != StateDone {
		t.Fatalf("first job %s (%s)", st1.State, st1.Error)
	}

	// Age the job out of the dedup index; the result cache still holds it.
	srv.mu.Lock()
	delete(srv.byKey, first.Job.Key)
	srv.mu.Unlock()

	second, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Fresh {
		t.Fatal("cold-key resubmission was scheduled instead of cache-served")
	}
	if second.Job.ID == first.Job.ID {
		t.Fatal("cold-key path returned the evicted job instead of a new one")
	}
	<-second.Job.Done()
	st2 := second.Job.Status()
	if !st2.Cached || st2.State != StateDone {
		t.Errorf("cache-served job = %s cached=%v", st2.State, st2.Cached)
	}
	if !bytes.Equal(st1.Report, st2.Report) {
		t.Errorf("cache-served report differs:\n%s\nvs\n%s", st1.Report, st2.Report)
	}
	if st1.Intervals == 0 || st2.Intervals != st1.Intervals {
		t.Errorf("cached timeline has %d intervals, original %d", st2.Intervals, st1.Intervals)
	}
	if n := srv.met.simulated.Load(); n != 1 {
		t.Errorf("simulated = %d, want 1", n)
	}
}

// TestDefaultSpoolRemovedOnDrain: without a SpoolDir, New creates a spool
// dir under TMPDIR and Drain removes it, since no later process could
// resume from it. An explicit SpoolDir survives the drain.
func TestDefaultSpoolRemovedOnDrain(t *testing.T) {
	explicit := t.TempDir()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, dir := range []string{"", explicit} {
		srv, err := New(Config{Workers: 1, SpoolDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("TMPDIR after drain holds %v (%v), want nothing", left, err)
	}
	if _, err := os.Stat(explicit); err != nil {
		t.Errorf("explicit spool dir removed by drain: %v", err)
	}
}
