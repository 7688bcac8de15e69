package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hybridvc/internal/service"
	"hybridvc/internal/service/client"
	"hybridvc/internal/telemetry"
)

// startDaemon boots an in-process hvcd and points a client at it.
func startDaemon(t *testing.T) *client.Client {
	t.Helper()
	srv, err := service.New(service.Config{Workers: 2, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
		ts.Close()
	})
	return client.New(ts.URL, nil)
}

// capture redirects command output for one test.
func capture(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	prev := stdout
	stdout = &buf
	t.Cleanup(func() { stdout = prev })
	return &buf
}

func TestStatusShowsLineage(t *testing.T) {
	c := startDaemon(t)
	buf := capture(t)
	ctx := context.Background()

	if err := cmdSubmit(ctx, c, []string{"-insns", "30000", "-wait"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "lineage lin-") {
		t.Errorf("submit output missing lineage line:\n%s", out)
	}

	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := cmdStatus(ctx, c, []string{jobs[0].ID}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"lineage": "lin-`) {
		t.Errorf("status output missing lineage field:\n%s", buf.String())
	}
}

// TestMetricsPromFlag: `hvcctl metrics` prints the Prometheus
// exposition, the only format /metrics serves, and it lints clean.
func TestMetricsPromFlag(t *testing.T) {
	c := startDaemon(t)
	buf := capture(t)

	if err := cmdMetrics(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# TYPE hvcd_completed_total counter", "# TYPE hvcd_e2e_seconds histogram"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	if err := telemetry.Lint(buf.Bytes()); err != nil {
		t.Errorf("metrics output is not a well-formed exposition: %v", err)
	}
}
