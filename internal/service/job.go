package service

import (
	"container/list"
	"context"
	"encoding/json"
	"sync"
	"time"

	"hybridvc/internal/stats"
)

// Job states. A job moves queued → running → one of the terminal states;
// a submission served from the durable store is born done.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// Job is one scheduled unit of work. All mutable fields are guarded by
// mu; the HTTP handlers, the worker running the job, and the streaming
// endpoint all touch jobs concurrently.
type Job struct {
	// ID and Key are immutable after creation.
	ID  string
	Key string

	// Lineage is the lineage ID of the submission that created this job
	// (immutable). Coalesced submissions keep their own lineage IDs in
	// the response/logs but share this job; a store-served job's chain
	// back to the producing run is in parentLineage.
	Lineage string

	// Spec is the normalized spec (immutable after creation).
	Spec JobSpec

	// cancel aborts the job's context; done closes when the job reaches
	// a terminal state (watchers and the streaming endpoint select on it).
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu            sync.Mutex
	state         string
	errMsg        string
	reportJSON    []byte
	tables        []string
	provenance    string // store-served jobs: "disk"
	checkpoint    string
	parentLineage string
	created       time.Time
	started       time.Time
	finished      time.Time
	tl            *stats.Timeline

	// expired marks a job whose per-job deadline fired; the worker then
	// finalizes it as failed-with-reason instead of canceled. deadline
	// is the armed timer, stopped on finish.
	expired  bool
	deadline *time.Timer

	// elem is the job's element in Server.finished once it is terminal;
	// guarded by Server.mu, not mu.
	elem *list.Element
}

// newJob creates a queued job with its own cancellation context,
// parented on the server lifetime rather than any HTTP request: the
// submitting connection may vanish while the job runs.
func newJob(id, key, lineage string, spec JobSpec, parent context.Context) *Job {
	ctx, cancel := context.WithCancel(parent)
	return &Job{
		ID: id, Key: key, Lineage: lineage, Spec: spec,
		ctx: ctx, cancel: cancel,
		done:    make(chan struct{}),
		state:   StateQueued,
		created: time.Now(),
	}
}

// Done returns the channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cancellation. It is idempotent and a no-op once the
// job is terminal.
func (j *Job) Cancel() { j.cancel() }

// armDeadline starts the job's deadline clock: d after now, a
// still-unfinished job is marked expired and its context cancelled, so
// a running simulation quiesces at its next chunk boundary and the
// worker finalizes the job as failed ("deadline exceeded") rather than
// leaving watchers hanging on a job that will never finish. d <= 0
// leaves the job unbounded.
func (j *Job) armDeadline(d time.Duration) {
	if d <= 0 {
		return
	}
	j.mu.Lock()
	if !terminal(j.state) {
		j.deadline = time.AfterFunc(d, j.expire)
	}
	j.mu.Unlock()
}

// expire marks the job deadline-exceeded and cancels its context. A
// no-op once the job is terminal (the timer racing a normal finish).
func (j *Job) expire() {
	j.mu.Lock()
	if terminal(j.state) {
		j.mu.Unlock()
		return
	}
	j.expired = true
	j.mu.Unlock()
	j.cancel()
}

// Expired reports whether the job's deadline fired before it finished.
func (j *Job) Expired() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.expired
}

// State returns the current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// timeline returns the live (or cached) timeline, which may be nil
// before the simulation constructs it and for sweep jobs.
func (j *Job) timeline() *stats.Timeline {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tl
}

// setTimeline publishes the timeline for streaming readers. The worker
// calls it as soon as the simulator exists, before the run starts.
func (j *Job) setTimeline(tl *stats.Timeline) {
	j.mu.Lock()
	j.tl = tl
	j.mu.Unlock()
}

// start transitions queued → running. It returns false when the job was
// already cancelled (the worker then finalizes it without running).
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	if j.ctx.Err() != nil {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish moves the job to a terminal state exactly once, recording the
// outcome and waking watchers. Later calls are ignored.
func (j *Job) finish(state string, report []byte, tables []string, errMsg string) {
	j.mu.Lock()
	if terminal(j.state) {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.reportJSON = report
	j.tables = tables
	j.errMsg = errMsg
	j.finished = time.Now()
	if j.deadline != nil {
		j.deadline.Stop()
		j.deadline = nil
	}
	j.mu.Unlock()
	j.cancel() // release the context watcher; idempotent
	close(j.done)
}

// finishCached marks a freshly created job done with a result served
// from the durable store (it was never queued). parentLineage is the
// lineage ID of the job that originally produced the result, so the
// lineage chain request → stored result → producing run stays
// traceable.
func (j *Job) finishCached(report []byte, tables []string, intervals []stats.Interval, parentLineage string) {
	tl := &stats.Timeline{}
	for _, iv := range intervals {
		tl.Append(iv)
	}
	j.mu.Lock()
	j.provenance = "disk"
	j.tl = tl
	j.parentLineage = parentLineage
	j.created = time.Now()
	j.mu.Unlock()
	j.finish(StateDone, report, tables, "")
}

// latencies reports the job's lifecycle-stage durations as of now:
// queue wait (created→started), execution (started→now) and end-to-end
// (created→now). Unstarted jobs report zero wait and execution.
func (j *Job) latencies(now time.Time) (queueWait, execute, endToEnd time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.started.IsZero() {
		queueWait = j.started.Sub(j.created)
		execute = now.Sub(j.started)
	}
	endToEnd = now.Sub(j.created)
	return
}

// setCheckpoint records the sweep checkpoint journal path so a drain
// survivor can report where its partial progress lives.
func (j *Job) setCheckpoint(path string) {
	j.mu.Lock()
	j.checkpoint = path
	j.mu.Unlock()
}

// JobStatus is the wire representation of a job (GET /v1/jobs/{id}).
type JobStatus struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	// Provenance is "disk" for a job born done from the durable store
	// (possibly written by another daemon sharing the directory). Empty
	// for fresh runs, whose repeats share the job itself.
	Provenance string `json:"provenance,omitempty"`
	Error      string `json:"error,omitempty"`

	// Lineage is the lineage ID of the submission that created the job;
	// ParentLineage (store-served jobs only) is the lineage of the run
	// that originally produced the result.
	Lineage       string `json:"lineage"`
	ParentLineage string `json:"parent_lineage,omitempty"`

	Spec JobSpec `json:"spec"`

	// Report is the simulation report (sim jobs, done only). On the wire
	// it is byte-identical to the original run's, whether the job ran it
	// or was served from the store: the store keeps the report compacted
	// and the JSON encoder compacts a fresh job's indented bytes too.
	Report json.RawMessage `json:"report,omitempty"`
	// Tables are the rendered result tables (sweep jobs, done only).
	Tables []string `json:"tables,omitempty"`
	// Checkpoint is the sweep journal path for a canceled/drained sweep;
	// resubmitting the same spec resumes from it.
	Checkpoint string `json:"checkpoint,omitempty"`

	// Intervals counts timeline intervals recorded so far.
	Intervals int `json:"intervals"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, Key: j.Key, State: j.state, Cached: j.provenance != "",
		Provenance: j.provenance, Error: j.errMsg,
		Spec: j.Spec, Checkpoint: j.checkpoint,
		Lineage: j.Lineage, ParentLineage: j.parentLineage,
		Created: j.created,
	}
	if len(j.reportJSON) > 0 {
		st.Report = append(json.RawMessage(nil), j.reportJSON...)
	}
	st.Tables = append([]string(nil), j.tables...)
	if j.tl != nil {
		st.Intervals = j.tl.Len()
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}
