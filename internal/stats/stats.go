// Package stats provides the small set of statistics primitives shared by
// the simulator components: hit/miss counters, ratios, histograms, and a
// registry for rendering experiment tables.
package stats

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Counter counts events.
type Counter uint64

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { *c++ }

// Value returns the current count.
func (c Counter) Value() uint64 { return uint64(c) }

// HitMiss tracks accesses that either hit or miss a structure.
type HitMiss struct {
	Hits   Counter
	Misses Counter
}

// Hit records a hit.
func (h *HitMiss) Hit() { h.Hits.Inc() }

// Miss records a miss.
func (h *HitMiss) Miss() { h.Misses.Inc() }

// Record records a hit when hit is true and a miss otherwise.
func (h *HitMiss) Record(hit bool) {
	if hit {
		h.Hit()
	} else {
		h.Miss()
	}
}

// Accesses returns hits + misses.
func (h HitMiss) Accesses() uint64 { return h.Hits.Value() + h.Misses.Value() }

// HitRate returns hits/accesses, or 0 for no accesses.
func (h HitMiss) HitRate() float64 {
	return Ratio(h.Hits.Value(), h.Accesses())
}

func (h HitMiss) String() string {
	return fmt.Sprintf("hits=%d misses=%d (%.2f%% hit)",
		h.Hits.Value(), h.Misses.Value(), 100*h.HitRate())
}

// Ratio returns num/den as a float, and 0 when den is 0.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// PerKilo returns events per thousand units (e.g. misses per kilo
// instruction, the paper's MPKI metric). It returns 0 when units is 0.
func PerKilo(events, units uint64) float64 {
	if units == 0 {
		return 0
	}
	return 1000 * float64(events) / float64(units)
}

// Percent formats a fraction in [0,1] as a percentage string.
func Percent(frac float64) string { return fmt.Sprintf("%.2f%%", 100*frac) }

// Histogram accumulates integer samples into explicit buckets.
type Histogram struct {
	// bounds[i] is the inclusive upper bound of bucket i; a final overflow
	// bucket collects everything above the last bound.
	bounds []uint64
	counts []uint64
	total  uint64
	sum    uint64
	max    uint64
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. It panics on empty or unsorted bounds: histogram shapes are fixed
// at construction by the experiment definitions.
func NewHistogram(bounds ...uint64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of observed samples, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the largest observed sample, or 0 if empty.
func (h *Histogram) Max() uint64 { return h.max }

// Sum returns the sum of all observed samples (Prometheus histogram
// exposition needs the raw sum alongside the bucket counts).
func (h *Histogram) Sum() uint64 { return h.sum }

// Bucket returns the count of bucket i (the final bucket is overflow).
func (h *Histogram) Bucket(i int) uint64 { return h.counts[i] }

// NumBuckets returns the bucket count including the overflow bucket.
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) using
// bucket boundaries; the overflow bucket reports the observed max.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// HistogramSnapshot is a Histogram frozen for serialization: bucket
// bounds and counts plus the summary statistics experiments report.
type HistogramSnapshot struct {
	// Bounds are the inclusive per-bucket upper bounds; Counts has one
	// extra final element for the overflow bucket.
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Total  uint64   `json:"total"`
	Sum    uint64   `json:"sum"`
	Mean   float64  `json:"mean"`
	Max    uint64   `json:"max"`
	P50    uint64   `json:"p50"`
	P90    uint64   `json:"p90"`
	P99    uint64   `json:"p99"`
}

// Snapshot freezes the histogram's current state. The returned slices
// are copies; the histogram may keep observing.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: append([]uint64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Total:  h.total,
		Sum:    h.sum,
		Mean:   h.Mean(),
		Max:    h.max,
		P50:    h.Quantile(0.50),
		P90:    h.Quantile(0.90),
		P99:    h.Quantile(0.99),
	}
}

// MarshalJSON serializes the histogram as its snapshot.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(h.Snapshot())
}

// Reset clears all observations, keeping the bucket shape.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum, h.max = 0, 0, 0
}

// Mean accumulates a running mean over float64 samples.
type Mean struct {
	n   uint64
	sum float64
}

// Observe adds a sample.
func (m *Mean) Observe(v float64) { m.n++; m.sum += v }

// Value returns the mean of observed samples, or 0 if empty.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// N returns the number of samples.
func (m *Mean) N() uint64 { return m.n }

// Table renders experiment results as an aligned text table, matching the
// row/column shape the paper reports.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded with empty cells. It panics
// when given more cells than the table has columns — like histogram
// bounds, a table's shape is fixed at construction by the experiment
// definition, and dropping surplus cells would silently corrupt results.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Columns) {
		panic(fmt.Sprintf("stats: AddRow got %d cells for %d columns in table %q",
			len(cells), len(t.Columns), t.Title))
	}
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// WriteCSV writes the table as CSV (header row, then data rows) for
// downstream plotting tools.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
