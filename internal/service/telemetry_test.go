// Observability tests: the Prometheus exposition contract (well-formed
// on every scrape, histograms reconciling exactly with the completed
// counter mid-run), job-lineage propagation across the dedup/coalesce
// and cache-hit paths, lineage-stamped structured logs, and the SSE
// timeline stream.
package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridvc/internal/service"
	"hybridvc/internal/service/client"
	"hybridvc/internal/stats"
	"hybridvc/internal/telemetry"
)

// startServerURL is startServer plus the raw base URL, for tests that
// need to set headers the client does not.
func startServerURL(t *testing.T, cfg service.Config) (*service.Server, *client.Client, string) {
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
	return srv, client.New(ts.URL, nil), ts.URL
}

// promValue extracts the value of the exposition line starting with the
// exact sample prefix (name or name{labels}).
func promValue(t *testing.T, body []byte, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix+" "); ok {
			v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				t.Fatalf("sample %s: bad value %q", prefix, rest)
			}
			return v
		}
	}
	t.Fatalf("no sample %q in exposition:\n%s", prefix, body)
	return 0
}

// TestMetricsLint is the `make metrics-lint` entry point: boot an
// in-process daemon, run work through it, scrape /metrics as a
// Prometheus client would and validate the exposition is well-formed.
func TestMetricsLint(t *testing.T) {
	_, c, _ := startServerURL(t, service.Config{Workers: 2, StoreDir: t.TempDir()})
	ctx := context.Background()
	for seed := int64(1); seed <= 2; seed++ {
		resp, err := c.Submit(ctx, service.JobSpec{Instructions: 30_000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, c, resp.ID, service.StateDone)
	}
	body, err := c.MetricsProm(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.Lint(body); err != nil {
		t.Fatalf("exposition not well-formed: %v\n%s", err, body)
	}
	for _, family := range []string{
		"# TYPE hvcd_queue_wait_seconds histogram",
		"# TYPE hvcd_execute_seconds histogram",
		"# TYPE hvcd_e2e_seconds histogram",
		"# TYPE hvcd_cache_serve_seconds histogram",
		"# TYPE hvcd_simulate_seconds histogram",
		"# TYPE hvcd_completed_total counter",
		"# TYPE hvcd_workers_busy gauge",
		"# TYPE hvcd_deadline_exceeded_total counter",
		"# TYPE hvcd_store_hits_total counter",
		"# TYPE hvcd_store_misses_total counter",
		"# TYPE hvcd_store_writes_total counter",
		"# TYPE hvcd_store_write_errors_total counter",
		"# TYPE hvcd_store_evictions_total counter",
		"# TYPE hvcd_store_corruptions_total counter",
		"# TYPE hvcd_store_records gauge",
		"# TYPE hvcd_store_bytes gauge",
	} {
		if !bytes.Contains(body, []byte(family)) {
			t.Errorf("exposition missing %q", family)
		}
	}
	// The store is enabled, so the write path must show through the
	// exposition: two simulations → two durable records.
	if v := promValue(t, body, "hvcd_store_writes_total"); v != 2 {
		t.Errorf("hvcd_store_writes_total = %v, want 2", v)
	}
	if v := promValue(t, body, "hvcd_store_records"); v != 2 {
		t.Errorf("hvcd_store_records = %v, want 2", v)
	}

	// A store-less daemon still exposes every family, zero-valued, so the
	// family set is stable for dashboards.
	_, c2, _ := startServerURL(t, service.Config{Workers: 1})
	body2, err := c2.MetricsProm(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.Lint(body2); err != nil {
		t.Fatalf("store-less exposition not well-formed: %v", err)
	}
	if v := promValue(t, body2, "hvcd_store_records"); v != 0 {
		t.Errorf("store-less hvcd_store_records = %v, want 0", v)
	}
}

// TestMetricsPrometheus is the acceptance invariant: on EVERY scrape —
// including scrapes racing in-flight completions — the queue-wait,
// execute and end-to-end histograms' +Inf buckets reconcile exactly
// with hvcd_completed_total from the same scrape.
func TestMetricsPrometheus(t *testing.T) {
	srv, c, _ := startServerURL(t, service.Config{Workers: 2})
	ctx := context.Background()

	const jobs = 6
	ids := make([]string, 0, jobs)
	for seed := int64(1); seed <= jobs; seed++ {
		resp, err := c.SubmitWait(ctx, service.JobSpec{Instructions: 40_000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.ID)

		// Scrape mid-run, while workers are completing jobs concurrently.
		body, err := c.MetricsProm(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := telemetry.Lint(body); err != nil {
			t.Fatalf("mid-run scrape not well-formed: %v", err)
		}
		completed := promValue(t, body, "hvcd_completed_total")
		for _, h := range []string{"hvcd_queue_wait_seconds", "hvcd_execute_seconds", "hvcd_e2e_seconds"} {
			inf := promValue(t, body, h+`_bucket{le="+Inf"}`)
			if inf != completed {
				t.Fatalf("mid-run scrape: %s +Inf bucket %v != hvcd_completed_total %v\n%s",
					h, inf, completed, body)
			}
			if cnt := promValue(t, body, h+"_count"); cnt != inf {
				t.Fatalf("%s: _count %v != +Inf %v", h, cnt, inf)
			}
		}
	}

	for _, id := range ids {
		waitState(t, c, id, service.StateDone)
	}
	body, err := c.MetricsProm(ctx)
	if err != nil {
		t.Fatal(err)
	}
	completed := promValue(t, body, "hvcd_completed_total")
	if completed != jobs {
		t.Fatalf("final hvcd_completed_total = %v, want %d", completed, jobs)
	}
	if m := srv.MetricsSnapshot(); uint64(completed) != m.Completed {
		t.Fatalf("exposition completed %v != MetricsSnapshot.Completed %d", completed, m.Completed)
	}
	if inf := promValue(t, body, `hvcd_e2e_seconds_bucket{le="+Inf"}`); inf != completed {
		t.Fatalf("final e2e +Inf %v != completed %v", inf, completed)
	}
}

// TestMetricsContentNegotiation: /metrics has one format. Whatever the
// Accept header says — none, JSON, or text/plain — the response is the
// Prometheus exposition and lints clean.
func TestMetricsContentNegotiation(t *testing.T) {
	_, _, base := startServerURL(t, service.Config{Workers: 1})
	for _, accept := range []string{"", "application/json", "text/plain"} {
		req, _ := http.NewRequest(http.MethodGet, base+"/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
			t.Errorf("Accept %q: Content-Type = %q, want %q", accept, ct, telemetry.ContentType)
		}
		if err := telemetry.Lint(body); err != nil {
			t.Errorf("Accept %q: exposition not well-formed: %v", accept, err)
		}
		if !bytes.Contains(body, []byte("# TYPE hvcd_completed_total counter")) {
			t.Errorf("Accept %q: body is not the hvcd exposition:\n%s", accept, body)
		}
	}
}

// TestLineagePropagation walks a spec through all three submission
// paths — fresh, coalesced onto a live job, served from a finished
// job — and checks each submission gets its own lineage ID while the
// origin lineage pins the request that actually scheduled the work.
func TestLineagePropagation(t *testing.T) {
	_, c, base := startServerURL(t, service.Config{Workers: 1, QueueDepth: 8})
	ctx := context.Background()

	// Occupy the only worker so the next submission stays queued.
	long, err := c.Submit(ctx, service.JobSpec{Instructions: 500_000_000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, long.ID, service.StateRunning)

	spec := service.JobSpec{Instructions: 30_000, Seed: 5}
	b1, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b1.Lineage, "lin-") || b1.OriginLineage != b1.Lineage {
		t.Fatalf("fresh submission lineage wrong: %+v", b1)
	}

	b2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !b2.Deduped || b2.ID != b1.ID || b2.Key != b1.Key {
		t.Fatalf("second submission did not coalesce: %+v", b2)
	}
	if b2.Lineage == b1.Lineage {
		t.Fatal("coalesced submission reused the originator's lineage ID")
	}
	if b2.OriginLineage != b1.Lineage {
		t.Fatalf("coalesced origin = %q, want originator %q", b2.OriginLineage, b1.Lineage)
	}

	if err := c.Cancel(ctx, long.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, b1.ID, service.StateDone)

	b3, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !b3.Cached {
		t.Fatalf("third submission not served from the finished job: %+v", b3)
	}
	if b3.Lineage == b1.Lineage || b3.Lineage == b2.Lineage {
		t.Fatal("cache-served submission reused an earlier lineage ID")
	}
	if b3.OriginLineage != b1.Lineage {
		t.Fatalf("cache-served origin = %q, want producing run %q", b3.OriginLineage, b1.Lineage)
	}

	// The shared job reports the originator's lineage in its status.
	st, err := c.Job(ctx, b1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Lineage != b1.Lineage {
		t.Fatalf("job status lineage = %q, want %q", st.Lineage, b1.Lineage)
	}

	// A well-formed X-Request-Id is adopted as the lineage ID and echoed
	// in the X-Lineage-Id response header.
	body, _ := json.Marshal(service.JobSpec{Instructions: 30_000, Seed: 6})
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "req-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Lineage-Id"); got != "req-trace-42" {
		t.Errorf("X-Lineage-Id = %q, want adopted request ID", got)
	}
	var sub service.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if sub.Lineage != "req-trace-42" {
		t.Errorf("response lineage = %q, want adopted request ID", sub.Lineage)
	}
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStructuredLogsCarryLineage: every lifecycle transition of a job
// logs one structured record stamped with the job's lineage ID and key.
func TestStructuredLogsCarryLineage(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	srv, err := service.New(service.Config{Workers: 1, SpoolDir: t.TempDir(), Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()

	res, err := srv.Submit(service.JobSpec{Instructions: 30_000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	<-res.Job.Done()

	// The "done" record is written just after the job wakes watchers;
	// poll briefly rather than race it.
	want := map[string]bool{"submitted": false, "running": false, "done": false}
	deadline := time.Now().Add(5 * time.Second)
	for {
		for event := range want {
			want[event] = false
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.Contains(line, `"event"`) {
				continue
			}
			var rec struct {
				Event   string `json:"event"`
				Lineage string `json:"lineage"`
				Key     string `json:"key"`
				Job     string `json:"job"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("unparseable log line %q: %v", line, err)
			}
			if _, tracked := want[rec.Event]; tracked && rec.Job == res.Job.ID {
				if rec.Lineage != res.Lineage {
					t.Fatalf("%s log lineage = %q, want %q", rec.Event, rec.Lineage, res.Lineage)
				}
				if rec.Key != res.Job.Key {
					t.Fatalf("%s log key = %q, want %q", rec.Event, rec.Key, res.Job.Key)
				}
				want[rec.Event] = true
			}
		}
		all := true
		for _, seen := range want {
			all = all && seen
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("missing lifecycle log records: %v\nlogs:\n%s", want, buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTimelineSSE: the SSE stream carries the same intervals as the
// NDJSON stream, frames them with id: cursors, terminates with a done
// event, and Last-Event-ID resumes mid-stream.
func TestTimelineSSE(t *testing.T) {
	_, c, base := startServerURL(t, service.Config{Workers: 1})
	ctx := context.Background()

	resp, err := c.Submit(ctx, service.JobSpec{Instructions: 100_000, Interval: 5_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, resp.ID, service.StateDone)

	var ndjson []stats.Interval
	if err := c.Timeline(ctx, resp.ID, false, func(iv stats.Interval) error {
		ndjson = append(ndjson, iv)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ndjson) < 3 {
		t.Fatalf("want several intervals to stream, got %d", len(ndjson))
	}

	var sse []stats.Interval
	if err := c.TimelineSSE(ctx, resp.ID, -1, true, func(iv stats.Interval) error {
		sse = append(sse, iv)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(sse) != len(ndjson) {
		t.Fatalf("SSE streamed %d intervals, NDJSON %d", len(sse), len(ndjson))
	}
	for i := range sse {
		if sse[i].Index != ndjson[i].Index || sse[i].Insns != ndjson[i].Insns {
			t.Fatalf("SSE interval %d differs from NDJSON: %+v vs %+v", i, sse[i], ndjson[i])
		}
	}

	// Resume after the second interval: only the tail arrives.
	var tail []stats.Interval
	if err := c.TimelineSSE(ctx, resp.ID, ndjson[1].Index, true, func(iv stats.Interval) error {
		tail = append(tail, iv)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != len(ndjson)-2 || tail[0].Index != ndjson[2].Index {
		t.Fatalf("resume from id %d streamed %d intervals starting at %v, want %d starting at %d",
			ndjson[1].Index, len(tail), tail, len(ndjson)-2, ndjson[2].Index)
	}

	// Raw framing: id: lines carry the interval ordinal and the stream
	// ends with the done event.
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+resp.ID+"/timeline?follow=0", nil)
	req.Header.Set("Accept", "text/event-stream")
	raw, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	if ct := raw.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(raw.Body)
	var ids []string
	sawDone := false
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "id: "); ok {
			ids = append(ids, rest)
		}
		if line == "event: done" {
			sawDone = true
		}
	}
	if want := fmt.Sprint(ndjson[0].Index); len(ids) == 0 || ids[0] != want {
		t.Errorf("first SSE id = %v, want %s", ids, want)
	}
	if !sawDone {
		t.Error("SSE stream did not terminate with event: done")
	}
}
