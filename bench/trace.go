package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans sharing a Trace belong to one
// operation; Parent names the enclosing span of the same trace. A span
// with Count > 1 aggregates that many calls made inside its parent (for
// example every AccessBatch of one simulation run): its duration is their
// sum and its start is the first call's.
type span struct {
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Count   uint64  `json:"count,omitempty"`
}

// epoch is the zero of every span's start time.
var epoch = time.Now()

func sinceEpochUS(t time.Time) float64 { return float64(t.Sub(epoch).Nanoseconds()) / 1e3 }

func newSpan(trace, name, parent string, start time.Time, dur time.Duration, count uint64) span {
	return span{
		Trace: trace, Name: name, Parent: parent,
		StartUS: sinceEpochUS(start), DurUS: float64(dur.Nanoseconds()) / 1e3, Count: count,
	}
}

// writeTrace writes the run's header, every span and every metric as
// NDJSON, one object per line, each tagged with its record type.
func writeTrace(path string, header map[string]any, o *outcome, metrics []metric) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	werr := enc.Encode(map[string]any{"type": "run", "run": header})
	for _, s := range o.spans {
		if werr != nil {
			break
		}
		werr = enc.Encode(struct {
			Type string `json:"type"`
			span
		}{"span", s})
	}
	for _, m := range metrics {
		if werr != nil {
			break
		}
		werr = enc.Encode(struct {
			Type string `json:"type"`
			metric
		}{"metric", m})
	}
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write trace %s: %w", path, werr)
	}
	return nil
}
