package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// TestFinishedJobsBounded: finished jobs are the daemon's one in-memory
// result tier, bounded by CacheEntries. Thirty distinct jobs, each
// followed by a repeat of one hot key, leave exactly CacheEntries jobs
// resident with no job live. The first has aged out (404), the hot job
// is still resident and answers its repeats, and the first spec comes
// back with the same bytes and timeline: from the store when there is
// one, from one new simulation when there is not.
func TestFinishedJobsBounded(t *testing.T) {
	for _, withStore := range []bool{false, true} {
		t.Run(fmt.Sprintf("store=%v", withStore), func(t *testing.T) {
			cfg := Config{Workers: 1, CacheEntries: 3, SpoolDir: t.TempDir()}
			if withStore {
				cfg.StoreDir = t.TempDir()
			}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv.Start()
			defer srv.Drain(context.Background())
			h := srv.Handler()

			spec := func(seed int64) JobSpec {
				return JobSpec{Instructions: 2_000, Interval: 1_000, Seed: seed}
			}
			submit := func(seed int64) *Job {
				t.Helper()
				res, err := srv.Submit(spec(seed))
				if err != nil {
					t.Fatal(err)
				}
				<-res.Job.Done()
				if st := res.Job.State(); st != StateDone {
					t.Fatalf("seed %d: job %s", seed, st)
				}
				return res.Job
			}
			status := func(method, id string) int {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(method, "/v1/jobs/"+id, nil))
				return rec.Code
			}

			hot := submit(1000)
			first := submit(1)
			firstSt := first.Status()
			for seed := int64(2); seed <= 30; seed++ {
				submit(seed)
				if rep := submit(1000); rep != hot {
					t.Fatalf("after seed %d the hot repeat got %s, want resident %s", seed, rep.ID, hot.ID)
				}
			}

			srv.mu.Lock()
			jobs, keys, finished := len(srv.jobs), len(srv.byKey), srv.finished.Len()
			srv.mu.Unlock()
			if jobs != 3 || keys != 3 || finished != 3 {
				t.Errorf("jobs/byKey/finished = %d/%d/%d, want 3/3/3", jobs, keys, finished)
			}
			if m := srv.MetricsSnapshot(); m.CacheLen != 3 || m.CacheHits != 29 {
				t.Errorf("cache entries/hits = %d/%d, want 3/29", m.CacheLen, m.CacheHits)
			}
			for _, method := range []string{http.MethodGet, http.MethodDelete} {
				if code := status(method, first.ID); code != http.StatusNotFound {
					t.Errorf("%s aged-out %s answered %d, want 404", method, first.ID, code)
				}
			}
			if code := status(http.MethodGet, hot.ID); code != http.StatusOK {
				t.Errorf("GET resident hot %s answered %d, want 200", hot.ID, code)
			}

			simulated := srv.met.simulated.Load()
			again := submit(1)
			st := again.Status()
			if again == first || st.ID == firstSt.ID {
				t.Fatal("aged-out job answered its resubmission")
			}
			if !bytes.Equal(compactJSON(t, st.Report), compactJSON(t, firstSt.Report)) {
				t.Errorf("re-served report differs:\n%s\nvs\n%s", st.Report, firstSt.Report)
			}
			if firstSt.Intervals != 2 || st.Intervals != firstSt.Intervals {
				t.Errorf("re-served timeline has %d intervals, first run %d, want 2", st.Intervals, firstSt.Intervals)
			}
			wantSims, wantProv := simulated+1, ""
			if withStore {
				wantSims, wantProv = simulated, "disk"
			}
			if n := srv.met.simulated.Load(); n != wantSims {
				t.Errorf("simulated = %d after resubmission, want %d", n, wantSims)
			}
			if st.Provenance != wantProv || st.Cached != withStore {
				t.Errorf("resubmission provenance %q cached %v, want %q %v", st.Provenance, st.Cached, wantProv, withStore)
			}
		})
	}
}

func compactJSON(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFinishFilesOnce finishes one job twice, as a drain whose deadline
// has passed and then the job's worker do: only the first call makes the
// transition, and the job is filed once.
func TestFinishFilesOnce(t *testing.T) {
	srv := idleServer(t)
	job := newJob(srv.newID(), "k", "lin", JobSpec{}, srv.lifetime)
	srv.mu.Lock()
	srv.register(job)
	srv.mu.Unlock()
	if !srv.finish(job, StateCanceled, nil, nil, "server drained", nil) {
		t.Fatal("first finish made no transition")
	}
	if srv.finish(job, StateCanceled, nil, nil, "context canceled", nil) {
		t.Error("second finish made a transition")
	}
	if n := srv.finished.Len(); n != 1 {
		t.Errorf("job filed %d times, want once", n)
	}
	if st := job.Status(); st.Error != "server drained" {
		t.Errorf("error = %q, want the first finish's", st.Error)
	}
}

// TestDrainPastDeadlineCountsOnce: a drain whose context has already
// expired marks a running job canceled, and the job's worker, returning
// with the cancellation a moment later, finds it terminal. The job is
// counted once, as canceled, whichever of the two finishes it.
func TestDrainPastDeadlineCountsOnce(t *testing.T) {
	srv, err := New(Config{Workers: 1, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	res, err := srv.Submit(JobSpec{Instructions: 500_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for res.Job.State() != StateRunning {
		time.Sleep(time.Millisecond)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(expired); err == nil {
		t.Fatal("drain with an expired context reported no error")
	}
	srv.wg.Wait()
	m := srv.MetricsSnapshot()
	if st := res.Job.State(); st != StateCanceled {
		t.Errorf("job state %s, want %s", st, StateCanceled)
	}
	if m.Submitted != 1 || m.Canceled != 1 || m.Failed != 0 || m.Completed != 0 {
		t.Errorf("submitted=%d canceled=%d failed=%d completed=%d, want 1 1 0 0",
			m.Submitted, m.Canceled, m.Failed, m.Completed)
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
