package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hybridvc"
	"hybridvc/experiments"
	"hybridvc/internal/buildinfo"
	"hybridvc/internal/service/store"
	"hybridvc/internal/stats"
	"hybridvc/internal/telemetry"
	"hybridvc/internal/workload"
)

// API wire types shared with the client package.

// SubmitResponse answers POST /v1/jobs.
type SubmitResponse struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State string `json:"state"`
	// Cached means the result was served by a finished job with the same
	// key or from the durable store — no new simulation was scheduled.
	Cached bool `json:"cached"`
	// Deduped means the submission coalesced onto a live job with the
	// same key (queued or running) instead of enqueueing a duplicate.
	Deduped bool `json:"deduped"`
	// Lineage is this submission's lineage ID (also in the X-Lineage-Id
	// response header); OriginLineage is the lineage of the request that
	// produced — or is producing — the result this submission will see.
	// They differ exactly when the submission was deduplicated.
	Lineage       string `json:"lineage"`
	OriginLineage string `json:"origin_lineage,omitempty"`
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}

// OrgInfo describes one organization (GET /v1/orgs).
type OrgInfo struct {
	Name        string `json:"name"`
	Virtualized bool   `json:"virtualized"`
}

// WorkloadInfo describes one catalog workload (GET /v1/orgs).
type WorkloadInfo struct {
	Name   string `json:"name"`
	Bytes  uint64 `json:"bytes"`
	Procs  int    `json:"procs"`
	Digest string `json:"digest"`
}

// CatalogResponse answers GET /v1/orgs: the selectable organizations and
// the workload catalog with content digests (the digests are the
// workload component of the cache key, so clients can predict keys).
type CatalogResponse struct {
	Organizations []OrgInfo      `json:"organizations"`
	Workloads     []WorkloadInfo `json:"workloads"`
}

// ExperimentInfo describes one registered experiment (GET /v1/experiments).
type ExperimentInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// HealthResponse answers GET /healthz — pure liveness: it is 200 as
// long as the process can answer HTTP, even while draining.
type HealthResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	Version  string `json:"version"`
	Jobs     int    `json:"jobs"`
	Draining bool   `json:"draining"`
}

// ReadyResponse answers GET /readyz — readiness: 503 while the server
// is draining, 200 otherwise, so load balancers stop routing fresh work
// to a daemon that would refuse it while the liveness probe keeps the
// process alive.
type ReadyResponse struct {
	Status   string `json:"status"` // "ready" or "draining"
	Draining bool   `json:"draining"`
}

// Handler returns the daemon's HTTP API, wrapped in structured request
// logging (one debug-level record per request with method, path, status,
// duration and the response's lineage ID when one was attached).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("GET /v1/orgs", s.handleOrgs)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.logRequests(mux)
}

// statusWriter records the response code for request logging while
// passing Flush through to the streaming endpoints.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) logRequests(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		s.logger.Debug("http request",
			"method", r.Method, "path", r.URL.Path, "status", sw.code,
			"dur_s", time.Since(start).Seconds(),
			"lineage", sw.Header().Get(lineageHeader),
			"remote", r.RemoteAddr)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// lineageHeader carries the submission's lineage ID on every job-scoped
// response; X-Request-Id is the inbound header a client may use to
// supply its own.
const (
	lineageHeader   = "X-Lineage-Id"
	requestIDHeader = "X-Request-Id"
)

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	lineage := telemetry.LineageFrom(r.Header.Get(requestIDHeader))
	w.Header().Set(lineageHeader, lineage)
	// The body is exactly one spec: unknown fields, and anything after the
	// spec but white space, are rejected rather than silently dropped.
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		err = errors.New("trailing data after the spec")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	res, err := s.SubmitWithLineage(spec, lineage)
	switch {
	case err == nil:
	case err == ErrDraining:
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err == ErrQueueFull:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job := res.Job
	state := job.State()
	resp := SubmitResponse{
		ID: job.ID, Key: job.Key, State: state,
		Cached:        !res.Fresh && state == StateDone,
		Deduped:       !res.Fresh && state != StateDone,
		Lineage:       res.Lineage,
		OriginLineage: res.Origin,
	}
	code := http.StatusAccepted
	if !res.Fresh {
		code = http.StatusOK
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.Status()
		st.Report = nil // keep the listing light; fetch one job for the body
		st.Tables = nil
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	w.Header().Set(lineageHeader, job.Lineage)
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	found, canceled := s.Cancel(id)
	if !found {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if !canceled {
		writeError(w, http.StatusConflict, "job %s already %s", id, mustState(s, id))
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": "canceling"})
}

func mustState(s *Server, id string) string {
	if j, ok := s.Job(id); ok {
		return j.State()
	}
	return "gone"
}

// timelinePoll is how often the streaming endpoint re-checks a live
// timeline for new intervals between job-completion wakeups.
const timelinePoll = 25 * time.Millisecond

// handleTimeline streams the job's interval time-series: every recorded
// interval immediately, then (unless ?follow=0) new intervals as the
// simulation appends them, terminating when the job finishes. The frame
// format is content-negotiated: NDJSON by default, Server-Sent Events
// when the client accepts text/event-stream — SSE frames carry the
// interval index as the `id:` cursor, and a reconnecting client's
// Last-Event-ID header resumes the stream right after the last interval
// it saw. Both formats share one cursor loop.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	if job.Spec.Kind == KindSweep {
		writeError(w, http.StatusNotFound, "sweep jobs have no timeline")
		return
	}
	follow := r.URL.Query().Get("follow") != "0"
	sse := acceptsEventStream(r.Header.Get("Accept"))

	cursor := 0
	w.Header().Set(lineageHeader, job.Lineage)
	if sse {
		if lei := r.Header.Get("Last-Event-ID"); lei != "" {
			if n, err := strconv.Atoi(lei); err == nil && n >= 0 {
				cursor = n + 1
			}
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	write := func(iv *stats.Interval) error {
		if !sse {
			return enc.Encode(iv)
		}
		b, err := json.Marshal(iv)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", iv.Index, b)
		return err
	}

	for {
		if tl := job.timeline(); tl != nil {
			batch := tl.Since(cursor)
			for i := range batch {
				if err := write(&batch[i]); err != nil {
					return // client went away
				}
			}
			cursor += len(batch)
			if len(batch) > 0 && flusher != nil {
				flusher.Flush()
			}
		}
		if terminal(job.State()) {
			// Final drain already happened above on this iteration.
			if tl := job.timeline(); tl == nil || tl.Len() <= cursor {
				if sse {
					// Tell browser EventSource clients the stream is
					// complete so they stop auto-reconnecting.
					fmt.Fprintf(w, "event: done\ndata: {\"state\":%q}\n\n", job.State())
					if flusher != nil {
						flusher.Flush()
					}
				}
				return
			}
			continue
		}
		if !follow {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-job.Done():
			// Loop once more to drain the tail, then exit via terminal.
		case <-time.After(timelinePoll):
		}
	}
}

// acceptsEventStream reports whether an Accept header asks for SSE.
func acceptsEventStream(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		if mt == "text/event-stream" {
			return true
		}
	}
	return false
}

func (s *Server) handleOrgs(w http.ResponseWriter, r *http.Request) {
	var resp CatalogResponse
	for _, o := range hybridvc.Organizations() {
		resp.Organizations = append(resp.Organizations, OrgInfo{
			Name: string(o), Virtualized: o.Virtualized(),
		})
	}
	for _, name := range workload.Names() {
		spec := workload.Specs[name]
		resp.Workloads = append(resp.Workloads, WorkloadInfo{
			Name:   name,
			Bytes:  spec.TotalBytes(),
			Procs:  max(1, spec.Procs),
			Digest: spec.Digest(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var out []ExperimentInfo
	for _, e := range experiments.All() {
		out = append(out, ExperimentInfo{Name: e.Name, Description: e.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	m := s.MetricsSnapshot()
	status := "ok"
	if m.Draining {
		status = "draining"
	}
	// Liveness is always 200: a draining daemon is still alive and still
	// serving cached results. Readiness (/readyz) carries the 503.
	writeJSON(w, http.StatusOK, HealthResponse{
		Status: status, Version: buildinfo.Version(),
		Jobs: m.Jobs, Draining: m.Draining,
	})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	m := s.MetricsSnapshot()
	resp := ReadyResponse{Status: "ready", Draining: m.Draining}
	code := http.StatusOK
	if m.Draining {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// handleMetrics serves the daemon counters, gauges and stage latency
// histograms as the Prometheus text exposition, whatever the Accept
// header asks for. All stage histograms and the completed counter come
// from ONE collector snapshot: hvcd_completed_total is the end-to-end
// histogram's sample count, so on every scrape — including mid-run —
// the histograms' +Inf buckets and the counter reconcile exactly.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.MetricsSnapshot()
	st := s.tel.Snapshot()

	enc := telemetry.NewEncoder()
	enc.Counter("hvcd_submitted_total", "Accepted submissions, including deduplicated and cache-served ones.", m.Submitted)
	enc.Counter("hvcd_deduped_total", "Submissions coalesced onto a live or finished job with the same key.", m.Deduped)
	enc.Counter("hvcd_cache_hits_total", "Repeat submissions answered by a finished job held in memory.", m.CacheHits)
	enc.Counter("hvcd_cache_misses_total", "Submissions that no live or finished job answered.", m.CacheMisses)
	enc.Counter("hvcd_simulated_total", "Simulations actually executed.", m.Simulated)
	enc.Counter("hvcd_sweeps_total", "Experiment sweeps actually executed.", m.Sweeps)
	enc.Counter("hvcd_completed_total", "Jobs completed successfully (equals the hvcd_e2e_seconds sample count).", st.EndToEnd.Total)
	enc.Counter("hvcd_failed_total", "Jobs that finished in the failed state.", m.Failed)
	enc.Counter("hvcd_canceled_total", "Jobs that finished in the canceled state.", m.Canceled)
	enc.Counter("hvcd_queue_full_total", "Submissions rejected by queue backpressure.", m.QueueFull)
	enc.Counter("hvcd_deadline_exceeded_total", "Jobs failed by the per-job deadline.", m.DeadlineExceeded)

	// Store families are emitted even when the disk tier is disabled (all
	// zeros) so dashboards and the metrics lint see a stable family set.
	var sm store.Metrics
	if m.Store != nil {
		sm = *m.Store
	}
	enc.Counter("hvcd_store_hits_total", "Durable result-store hits (restart-warm cache serves).", sm.Hits)
	enc.Counter("hvcd_store_misses_total", "Durable result-store misses.", sm.Misses)
	enc.Counter("hvcd_store_writes_total", "Records durably written to the result store.", sm.Writes)
	enc.Counter("hvcd_store_write_errors_total", "Failed durable result-store writes.", sm.WriteErrors)
	enc.Counter("hvcd_store_evictions_total", "Result-store records evicted by TTL or the size budget.", sm.Evictions)
	enc.Counter("hvcd_store_corruptions_total", "Corrupt result-store records detected and quarantined.", sm.Corruptions)

	enc.Gauge("hvcd_queue_depth", "Jobs waiting in the submission queue.", float64(m.QueueDepth))
	enc.Gauge("hvcd_jobs", "Jobs resident in the registry, any state.", float64(m.Jobs))
	enc.Gauge("hvcd_workers", "Size of the worker pool.", float64(m.Workers))
	enc.Gauge("hvcd_workers_busy", "Workers currently executing a job.", float64(m.WorkersBusy))
	enc.Gauge("hvcd_cache_entries", "Finished jobs held in memory (bounded by -cache).", float64(m.CacheLen))
	draining := 0.0
	if m.Draining {
		draining = 1
	}
	enc.Gauge("hvcd_draining", "1 while the server is draining, 0 otherwise.", draining)
	enc.Gauge("hvcd_store_records", "Records resident in the durable result store.", float64(sm.Records))
	enc.Gauge("hvcd_store_bytes", "Bytes resident in the durable result store.", float64(sm.Bytes))
	enc.Gauge("hvcd_uptime_seconds", "Seconds since the server started.", float64(m.UptimeSec))
	enc.Gauge("hvcd_build_info", "Build metadata; the value is always 1.", 1,
		telemetry.Label{Name: "version", Value: buildinfo.Version()})

	enc.Histogram("hvcd_queue_wait_seconds", "Time jobs spent queued before a worker picked them up.",
		st.QueueWait, telemetry.LatencyScale)
	enc.Histogram("hvcd_execute_seconds", "Time jobs spent executing on a worker.",
		st.Execute, telemetry.LatencyScale)
	enc.Histogram("hvcd_e2e_seconds", "End-to-end job latency, submission to completion.",
		st.EndToEnd, telemetry.LatencyScale)
	enc.Histogram("hvcd_cache_serve_seconds", "Latency of submissions served by a finished job or from the durable store.",
		st.CacheServe, telemetry.LatencyScale)
	for _, org := range st.Orgs() {
		enc.Histogram("hvcd_simulate_seconds", "Execution latency of simulation jobs by cache organization.",
			st.Simulate[org], telemetry.LatencyScale,
			telemetry.Label{Name: "org", Value: org})
	}

	w.Header().Set("Content-Type", telemetry.ContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(enc.Bytes())
}
