// Package client is the reusable Go client for the hvcd daemon's HTTP
// API. cmd/hvcctl is a thin CLI over it; tests and load generators use
// it directly.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hybridvc/internal/service"
	"hybridvc/internal/stats"
)

// Client talks to one hvcd base URL (e.g. "http://localhost:8077").
type Client struct {
	base string
	hc   *http.Client
}

// New builds a client. A nil httpClient uses http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// Base returns the client's base URL (trailing slash stripped).
func (c *Client) Base() string { return c.base }

// APIError is a non-2xx response, carrying the server's error message
// and any Retry-After hint.
type APIError struct {
	StatusCode int
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("hvcd: %d: %s", e.StatusCode, e.Message)
}

// IsRetryable reports whether the submission should simply be retried
// later: queue backpressure (429), and temporary unavailability (503 — a
// draining daemon).
func (e *APIError) IsRetryable() bool {
	return e.StatusCode == http.StatusTooManyRequests ||
		e.StatusCode == http.StatusServiceUnavailable
}

// do issues a request and decodes a JSON body into out (when non-nil).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func apiError(resp *http.Response) error {
	apiErr := &APIError{StatusCode: resp.StatusCode}
	var e service.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
		apiErr.Message = e.Error
	} else {
		apiErr.Message = resp.Status
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// Submit posts a job spec and returns the daemon's scheduling decision.
func (c *Client) Submit(ctx context.Context, spec service.JobSpec) (service.SubmitResponse, error) {
	var out service.SubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &out)
	return out, err
}

// SubmitWait submits with bounded retries on retryable rejections
// (429 queue full, 503 draining): it honours
// Retry-After when the server supplies one, otherwise paces itself with
// the default capped jittered exponential Backoff, and gives up when ctx
// expires or the backoff's MaxElapsed budget is spent. Non-retryable
// errors return immediately.
func (c *Client) SubmitWait(ctx context.Context, spec service.JobSpec) (service.SubmitResponse, error) {
	return c.SubmitWaitBackoff(ctx, spec, Backoff{})
}

// SubmitWaitBackoff is SubmitWait with explicit retry pacing.
func (c *Client) SubmitWaitBackoff(ctx context.Context, spec service.JobSpec, b Backoff) (service.SubmitResponse, error) {
	b = b.WithDefaults()
	start := time.Now()
	for attempt := 0; ; attempt++ {
		out, err := c.Submit(ctx, spec)
		apiErr, ok := err.(*APIError)
		if err == nil || !ok || !apiErr.IsRetryable() {
			return out, err
		}
		wait := apiErr.RetryAfter
		if wait <= 0 {
			wait = b.Delay(attempt)
		}
		if time.Since(start)+wait > b.MaxElapsed {
			return out, fmt.Errorf("hvcd: submit retries exhausted after %v: %w",
				time.Since(start).Round(time.Millisecond), apiErr)
		}
		select {
		case <-ctx.Done():
			return out, ctx.Err()
		case <-time.After(wait):
		}
	}
}

// Job fetches one job's status (including the report once done).
func (c *Client) Job(ctx context.Context, id string) (service.JobStatus, error) {
	var out service.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out)
	return out, err
}

// Jobs lists all jobs known to the daemon (reports elided).
func (c *Client) Jobs(ctx context.Context) ([]service.JobStatus, error) {
	var out []service.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Watch polls the job until it reaches a terminal state and returns the
// final status. poll <= 0 defaults to 100ms.
func (c *Client) Watch(ctx context.Context, id string, poll time.Duration) (service.JobStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case service.StateDone, service.StateFailed, service.StateCanceled:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// Timeline streams the job's NDJSON interval time-series, invoking fn
// for each interval as it arrives. With follow, the stream tracks a
// running job until it finishes; otherwise it returns the intervals
// recorded so far. A non-nil error from fn aborts the stream.
func (c *Client) Timeline(ctx context.Context, id string, follow bool, fn func(stats.Interval) error) error {
	url := c.base + "/v1/jobs/" + id + "/timeline"
	if !follow {
		url += "?follow=0"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var iv stats.Interval
		if err := json.Unmarshal(line, &iv); err != nil {
			return fmt.Errorf("timeline: bad interval line: %w", err)
		}
		if err := fn(iv); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Orgs fetches the organization and workload catalog.
func (c *Client) Orgs(ctx context.Context) (service.CatalogResponse, error) {
	var out service.CatalogResponse
	err := c.do(ctx, http.MethodGet, "/v1/orgs", nil, &out)
	return out, err
}

// Experiments fetches the experiment registry listing.
func (c *Client) Experiments(ctx context.Context) ([]service.ExperimentInfo, error) {
	var out []service.ExperimentInfo
	err := c.do(ctx, http.MethodGet, "/v1/experiments", nil, &out)
	return out, err
}

// Health fetches /healthz. A draining daemon answers 503 but still
// reports its body, so that case is not an error here.
func (c *Client) Health(ctx context.Context) (service.HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return service.HealthResponse{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return service.HealthResponse{}, err
	}
	defer resp.Body.Close()
	var out service.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	return out, nil
}

// Ready fetches /readyz. Like Health, the 503 a draining daemon answers
// still carries a body, so that case is not an error here — inspect the
// returned Status/Draining fields.
func (c *Client) Ready(ctx context.Context) (service.ReadyResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return service.ReadyResponse{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return service.ReadyResponse{}, err
	}
	defer resp.Body.Close()
	var out service.ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	return out, nil
}

// MetricsProm fetches /metrics, the Prometheus text exposition.
func (c *Client) MetricsProm(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// TimelineSSE streams the job's timeline as Server-Sent Events, invoking
// fn for each interval. lastEventID >= 0 resumes the stream after that
// interval index (the SSE id of the last frame already seen); pass -1 to
// stream from the beginning. The server's terminal "done" event ends the
// stream without an error.
func (c *Client) TimelineSSE(ctx context.Context, id string, lastEventID int, follow bool, fn func(stats.Interval) error) error {
	url := c.base + "/v1/jobs/" + id + "/timeline"
	if !follow {
		url += "?follow=0"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastEventID))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}

	// Minimal SSE parser: accumulate field lines until a blank line ends
	// the event, then dispatch. Only the fields the server emits (event,
	// id, data) are interpreted; unknown fields are ignored per the spec.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event, data string
	dispatch := func() error {
		defer func() { event, data = "", "" }()
		if data == "" || event == "done" {
			return nil
		}
		var iv stats.Interval
		if err := json.Unmarshal([]byte(data), &iv); err != nil {
			return fmt.Errorf("timeline sse: bad data frame: %w", err)
		}
		return fn(iv)
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := dispatch(); err != nil {
				return err
			}
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return dispatch() // stream may end without a trailing blank line
}
