package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("counter = %d, want 42", c.Value())
	}
}

func TestHitMiss(t *testing.T) {
	var h HitMiss
	for i := 0; i < 3; i++ {
		h.Hit()
	}
	h.Miss()
	if h.Accesses() != 4 {
		t.Errorf("accesses = %d, want 4", h.Accesses())
	}
	if h.HitRate() != 0.75 {
		t.Errorf("hit rate = %f, want 0.75", h.HitRate())
	}
	h.Record(true)
	h.Record(false)
	if h.Hits.Value() != 4 || h.Misses.Value() != 2 {
		t.Errorf("after Record: %v", h)
	}
	if !strings.Contains(h.String(), "hits=4") {
		t.Errorf("String: %q", h.String())
	}
}

func TestHitMissEmpty(t *testing.T) {
	var h HitMiss
	if h.HitRate() != 0 {
		t.Error("empty HitMiss hit rate must be 0")
	}
}

func TestRatioAndPerKilo(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator must be 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Error("Ratio(3,4) != 0.75")
	}
	if PerKilo(5, 0) != 0 {
		t.Error("PerKilo with zero units must be 0")
	}
	if PerKilo(5, 1000) != 5 {
		t.Errorf("PerKilo(5,1000) = %f, want 5", PerKilo(5, 1000))
	}
	if Percent(0.1234) != "12.34%" {
		t.Errorf("Percent = %q", Percent(0.1234))
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	if h.NumBuckets() != 4 {
		t.Fatalf("buckets = %d, want 4", h.NumBuckets())
	}
	for _, v := range []uint64{0, 10, 11, 100, 500, 1001, 5000} {
		h.Observe(v)
	}
	wantCounts := []uint64{2, 2, 1, 2}
	for i, want := range wantCounts {
		if got := h.Bucket(i); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Max() != 5000 {
		t.Errorf("max = %d", h.Max())
	}
	wantMean := float64(0+10+11+100+500+1001+5000) / 7
	if h.Mean() != wantMean {
		t.Errorf("mean = %f, want %f", h.Mean(), wantMean)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(8)
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Errorf("p50 = %d, want 1", q)
	}
	if q := h.Quantile(0.99); q != 8 {
		t.Errorf("p99 = %d, want 8", q)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Error("empty quantile must be 0")
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, bounds := range [][]uint64{{}, {5, 5}, {5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestHistogramCountInvariant(t *testing.T) {
	f := func(samples []uint16) bool {
		h := NewHistogram(16, 256, 4096)
		for _, s := range samples {
			h.Observe(uint64(s))
		}
		var sum uint64
		for i := 0; i < h.NumBuckets(); i++ {
			sum += h.Bucket(i)
		}
		return sum == h.Count() && sum == uint64(len(samples))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Error("empty mean must be 0")
	}
	m.Observe(1)
	m.Observe(2)
	m.Observe(3)
	if m.Value() != 2 || m.N() != 3 {
		t.Errorf("mean = %f n = %d", m.Value(), m.N())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table I", "workload", "shared area", "shared access")
	tb.AddRow("ferret", "0.94%", "0.24%")
	tb.AddRow("postgres") // short row padded
	out := tb.String()
	for _, want := range []string{"Table I", "workload", "ferret", "0.94%", "postgres"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Errorf("rows = %d", tb.NumRows())
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("1", "x,y") // comma must be quoted
	tb.AddRow("2", "z")
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n2,z\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestAddRowRejectsOverflow(t *testing.T) {
	tb := NewTable("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("AddRow accepted more cells than columns")
		}
		if tb.NumRows() != 0 {
			t.Error("overflowing row was recorded")
		}
	}()
	tb.AddRow("1", "2", "3") // one cell too many — must panic, not truncate
}

// TestHistogramCumulativeRendering is the property a Prometheus-style
// cumulative rendering of Snapshot depends on: partial sums over the
// per-bucket counts are monotone non-decreasing, and the final
// cumulative value (the +Inf bucket) equals Count().
func TestHistogramCumulativeRendering(t *testing.T) {
	f := func(samples []uint16) bool {
		h := NewHistogram(10, 100, 1_000, 10_000)
		var sum uint64
		for _, s := range samples {
			h.Observe(uint64(s))
			sum += uint64(s)
		}
		snap := h.Snapshot()
		if len(snap.Counts) != len(snap.Bounds)+1 {
			return false
		}
		var cum, prev uint64
		for _, c := range snap.Counts {
			cum += c
			if cum < prev {
				return false
			}
			prev = cum
		}
		return cum == h.Count() &&
			snap.Total == h.Count() &&
			snap.Sum == sum && h.Sum() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHistogramSnapshotQuantileAgreement: the snapshot's precomputed
// percentiles must match Quantile at snapshot time, and every quantile
// is an upper bound that some bucket's cumulative count justifies.
func TestHistogramSnapshotQuantileAgreement(t *testing.T) {
	h := NewHistogram(10, 100, 1_000)
	for v := uint64(1); v <= 2_000; v += 7 {
		h.Observe(v)
	}
	snap := h.Snapshot()
	for _, c := range []struct {
		q    float64
		want uint64
	}{{0.50, snap.P50}, {0.90, snap.P90}, {0.99, snap.P99}} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, snapshot says %d", c.q, got, c.want)
		}
	}
	if h.Quantile(1.0) != h.Max() {
		t.Errorf("Quantile(1.0) = %d, want max %d", h.Quantile(1.0), h.Max())
	}
	if snap.Max != h.Max() {
		t.Errorf("snapshot max = %d, want %d", snap.Max, h.Max())
	}
}
