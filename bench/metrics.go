package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json declares it. Every workload
// reports every metric of its table; metrics_test.go keeps the tables and
// BENCHMARK.json in step.
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the simulator or of hvcd sees,
// reported with tracing off.
var endToEnd = []metricSpec{
	{"sim_insts_per_s", "insts/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of single layers, reported by the traced run.
// Service-layer entries read 0 on the in-process workloads, which have no
// service; they are counts or dimensionless shares for that reason.
var perLayer = []metricSpec{
	{"trace.overhead", "ratio", "lower"},
	{"timeline.overhead", "ratio", "lower"},
	{"fresh.p50_ms", "ms", "lower"},
	{"fresh.tail_ms", "ms", "lower"},
	{"workload.ns_per_insn", "ns", "lower"},
	{"sim.loop_self_s", "s", "lower"},
	{"sim.loop_ns_per_insn", "ns", "lower"},
	{"memsys.access_s", "s", "lower"},
	{"memsys.ns_per_ref", "ns", "lower"},
	{"memsys.hybrid-manyseg-sc.ns_per_ref", "ns", "lower"},
	{"sim.hybrid-manyseg-sc.insts_per_s", "insts/s", "higher"},
	{"synfilter.lookup_ns", "ns", "lower"},
	{"tlb.lookup_ns", "ns", "lower"},
	{"cache.access_ns", "ns", "lower"},
	{"segment.tree_lookup_ns", "ns", "lower"},
	{"segment.translate_ns", "ns", "lower"},
	{"pagetable.walk_ns", "ns", "lower"},
	{"memsys.refs", "count", "lower"},
	{"memsys.batches", "count", "lower"},
	{"cpu.cycles", "count", "lower"},
	{"cpu.instructions", "count", "higher"},
	{"cache.llc_misses", "count", "lower"},
	{"pipeline.walk_steps", "count", "lower"},
	{"pipeline.faults", "count", "lower"},
	{"stats.intervals", "count", "lower"},
	{"service.queue_wait_share", "ratio", "lower"},
	{"service.execute_share", "ratio", "lower"},
	{"service.cache_serve_share", "ratio", "lower"},
	{"client.overhead_share", "ratio", "lower"},
	{"client.hit_over_fresh", "ratio", "lower"},
	{"client.disk_hit_over_fresh", "ratio", "lower"},
	{"service.simulated", "count", "lower"},
	{"service.deduped", "count", "higher"},
	{"service.memory_hits", "count", "higher"},
	{"service.disk_hits", "count", "higher"},
	{"service.jobs", "count", "lower"},
	{"store.writes", "count", "lower"},
	{"store.records", "count", "lower"},
	{"store.bytes", "count", "lower"},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether a metric name is usable in BENCHMARK.json.
func validName(name string) bool { return nameRE.MatchString(name) }

// orgMetric maps an organization name onto the metric-name alphabet:
// "hybrid-manyseg+sc" becomes "hybrid-manyseg-sc".
func orgMetric(org string) string { return strings.ReplaceAll(org, "+", "-") }

// metric is one measured value.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// outcome collects what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	firstFailure      string

	values map[string]float64
	// detail holds workload-specific figures (per organization, per
	// request class) that are printed and traced but not in BENCHMARK.json.
	detail []metric
	spans  []span
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// op records one attempted operation; a non-nil err marks it failed.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstFailure == "" {
			o.firstFailure = err.Error()
		}
	}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) addDetail(name, unit string, v float64) {
	o.detail = append(o.detail, metric{Name: name, Unit: unit, Value: v})
}

// table returns the named table's metrics in declaration order. A metric
// the workload did not set is an error in the harness itself.
func (o *outcome) table(specs []metricSpec) ([]metric, error) {
	out := make([]metric, 0, len(specs))
	for _, s := range specs {
		v, ok := o.values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out = append(out, metric{Name: s.Name, Unit: s.Unit, Value: v})
	}
	return out, nil
}

// median returns the middle value (mean of the middle two for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamples = 10

// tail returns the highest percentile that still has at least
// tailSamples samples beyond it, and its value: p99 for 1,000 samples,
// p95 for 200. ok is false when there are too few samples.
func tail(xs []float64) (pct, v float64, ok bool) {
	n := len(xs)
	if n <= tailSamples {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - tailSamples // samples at or below the reported value
	return 100 * float64(k) / float64(n), s[k-1], true
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
