package main

import (
	"testing"

	"hybridvc/internal/stats"
	"hybridvc/internal/telemetry"
)

// TestParsePromEncoderFixture reads an exposition rendered by the
// daemon's own encoder.
func TestParsePromEncoderFixture(t *testing.T) {
	h := stats.NewHistogram(10, 100, 1000)
	for _, us := range []uint64{5, 50, 500, 5000} {
		h.Observe(us)
	}
	enc := telemetry.NewEncoder()
	enc.Counter("hvcd_simulated_total", "Simulations.", 42)
	enc.Gauge("hvcd_store_bytes", "Bytes.", 1.5e6)
	enc.Gauge("hvcd_build_info", "Build.", 1, telemetry.Label{Name: "version", Value: `v1 "q"\x`})
	enc.Histogram("hvcd_e2e_seconds", "E2E.", h.Snapshot(), telemetry.LatencyScale)
	enc.Histogram("hvcd_simulate_seconds", "Per org.", h.Snapshot(), telemetry.LatencyScale,
		telemetry.Label{Name: "org", Value: "hybrid-manyseg+sc"})
	data := enc.Bytes()
	if err := telemetry.Lint(data); err != nil {
		t.Fatalf("fixture does not lint: %v", err)
	}

	p, err := parseProm(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"hvcd_simulated_total", nil, 42},
		{"hvcd_store_bytes", nil, 1.5e6},
		{"hvcd_build_info", []string{"version", `v1 "q"\x`}, 1},
		{"hvcd_e2e_seconds_bucket", []string{"le", "+Inf"}, 4},
	} {
		if got, ok := p.value(tc.name, tc.labels...); !ok || got != tc.want {
			t.Errorf("%s%v = %v (ok=%v), want %v", tc.name, tc.labels, got, ok, tc.want)
		}
	}
	const wantSum = 5555e-6
	sum, count, ok := p.histogram("hvcd_e2e_seconds")
	if !ok || count != 4 || sum < wantSum*(1-1e-9) || sum > wantSum*(1+1e-9) {
		t.Errorf("hvcd_e2e_seconds sum=%v count=%v ok=%v, want %v and 4", sum, count, ok, wantSum)
	}
	if _, count, ok := p.histogram("hvcd_simulate_seconds", "org", "hybrid-manyseg+sc"); !ok || count != 4 {
		t.Errorf("labelled histogram count=%v ok=%v, want 4", count, ok)
	}
	if _, ok := p.value("hvcd_missing_total"); ok {
		t.Error("absent series reported present")
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"novalue\n",
		"x{a=\"1\" 2\n",
		"x{a=1} 2\n",
		"x 1 2 3\n",
		"x abc\n",
	} {
		if _, err := parseProm([]byte(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted malformed input", bad)
		}
	}
}
