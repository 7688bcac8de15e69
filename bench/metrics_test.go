package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"hybridvc"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{{1000, 99}, {200, 95}, {11, 100.0 / 11}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i + 1) // descending: tail must sort
		}
		pct, v, ok := tail(xs)
		if !ok || pct != tc.wantPct {
			t.Errorf("n=%d: tail percentile %v (ok=%v), want %v", tc.n, pct, ok, tc.wantPct)
		}
		if want := float64(tc.n - tailSamples); v != want {
			t.Errorf("n=%d: tail value %v, want %v (exactly %d samples beyond)", tc.n, v, want, tailSamples)
		}
	}
	if _, _, ok := tail(make([]float64, tailSamples)); ok {
		t.Errorf("tail of %d samples reported a percentile", tailSamples)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestOrgMetricNames(t *testing.T) {
	if got := orgMetric(string(hybridvc.HybridManySegSC)); got != "hybrid-manyseg-sc" {
		t.Errorf("orgMetric(hybrid-manyseg+sc) = %q", got)
	}
	for _, org := range hybridvc.Organizations() {
		for _, name := range []string{"sim." + orgMetric(string(org)) + ".insts_per_s", "memsys." + orgMetric(string(org)) + ".ns_per_ref"} {
			if !validName(name) {
				t.Errorf("%s: metric name %q is invalid", org, name)
			}
		}
	}
	for _, bad := range []string{"", "-lead", "a+b", "a b", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the harness reports in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(table string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness reports %d", table, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", table, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)

	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !validName(m.Name) || seen[m.Name] {
			t.Errorf("metric %q is invalid or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, harness %s", got, want)
	}
}
