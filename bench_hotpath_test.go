// BenchmarkHotPath measures the batched access hot path against the
// scalar one: every organization runs the same gups reference stream
// through per-reference Access calls and through AccessBatch chunks at
// every size in the -chunks sweep (default 64,128,256), on identically
// seeded twin systems. Each pass does one untimed warmup and the timed
// trials alternate the scalar pass with every batch chunk size, so slow
// periods on a noisy host hit all columns alike; each column scores its
// best of five trials, the standard way to strip GC/scheduler noise from
// a steady-state measurement. The refs/sec of both paths, their ratio at
// the simulator's default chunk, and the full chunk sweep land in
// BENCH_hotpath.json, which `make bench-check` compares against. End-to-end
// speed is measured by the repository benchmark in bench/. Run via:
//
//	make bench-hotpath
package hybridvc_test

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"hybridvc"
	"hybridvc/internal/core"
	"hybridvc/internal/sim"
)

// preRefactorScalarRefsPerSec is the hybrid-manyseg+sc throughput of the
// pre-refactor scalar loop (the monolithic per-reference Access of commit
// 8488e5e), measured on this machine with the exact protocol below: gups,
// 256 KiB LLC, seed 1, 200k requests, one warmup pass, best of five timed
// passes. The refactor replaced that code, so the reference point is
// recorded here; regenerate it with a `git worktree add <dir> 8488e5e` and
// the same measurement loop. The scalar column in the rows below is the
// post-refactor engine's scalar path, which already includes this PR's
// shared-structure optimizations and therefore beats the recorded baseline.
const preRefactorScalarRefsPerSec = 1_240_000

// hotpathChunks is the AccessBatch chunk-size sweep. The organization
// rows (and the speedup the regression gate reads) use the simulator's
// default interleave; every size in the list additionally lands in the
// chunk_sweep section.
var hotpathChunks = flag.String("chunks", "64,128,256", "comma-separated AccessBatch chunk sizes for BenchmarkHotPath")

func parseChunks(b *testing.B, s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			b.Fatalf("-chunks %q: each entry must be a positive integer", s)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		b.Fatalf("-chunks %q: empty sweep", s)
	}
	return out
}

func BenchmarkHotPath(b *testing.B) {
	type row struct {
		Org              string  `json:"org"`
		Refs             int     `json:"refs"`
		ScalarRefsPerSec float64 `json:"scalar_refs_per_sec"`
		BatchRefsPerSec  float64 `json:"batch_refs_per_sec"`
		Speedup          float64 `json:"speedup"`
	}
	type sweepRow struct {
		Org             string  `json:"org"`
		BatchRefsPerSec float64 `json:"batch_refs_per_sec"`
		Speedup         float64 `json:"speedup"`
	}
	const refs = 200_000
	const trials = 5
	chunks := parseChunks(b, *hotpathChunks)
	// The headline rows use the simulator's default interleave — the chunk
	// size real runs batch at; it joins the sweep if the flag omitted it.
	primary := sim.DefaultConfig().Interleave
	pi := -1
	for i, c := range chunks {
		if c == primary {
			pi = i
		}
	}
	if pi == -1 {
		chunks = append(chunks, primary)
		pi = len(chunks) - 1
	}
	maxChunk := 0
	for _, c := range chunks {
		if c > maxChunk {
			maxChunk = c
		}
	}

	var rows []row
	sweep := make([][]sweepRow, len(chunks))
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for ci := range sweep {
			sweep[ci] = sweep[ci][:0]
		}
		for _, org := range hybridvc.Organizations() {
			scalarSys := newHotpathSystem(b, org, "gups")
			batchSys := newHotpathSystem(b, org, "gups")
			sreqs := collectRequests(scalarSys, refs)
			breqs := collectRequests(batchSys, refs)
			res := make([]core.Result, maxChunk)

			scalarPass := func() {
				for j := range sreqs {
					scalarSys.Mem.Access(sreqs[j])
				}
			}
			batchPass := func(chunk int) {
				for lo := 0; lo < refs; lo += chunk {
					hi := min(lo+chunk, refs)
					batchSys.Mem.AccessBatch(breqs[lo:hi], res[:hi-lo])
				}
			}

			// One untimed warmup pass each to reach steady state, then the
			// timed trials alternate the scalar pass with every chunk size so
			// slow periods on a noisy host hit all columns alike; each column
			// scores its best trial.
			scalarPass()
			batchPass(primary)
			timed := func(pass func()) float64 {
				runtime.GC()
				start := time.Now()
				pass()
				return time.Since(start).Seconds()
			}
			scalarSecs := 0.0
			batchSecs := make([]float64, len(chunks))
			for t := 0; t < trials; t++ {
				s := timed(scalarPass)
				if t == 0 || s < scalarSecs {
					scalarSecs = s
				}
				for ci, chunk := range chunks {
					bt := timed(func() { batchPass(chunk) })
					if t == 0 || bt < batchSecs[ci] {
						batchSecs[ci] = bt
					}
				}
			}

			rows = append(rows, row{
				Org:              string(org),
				Refs:             refs,
				ScalarRefsPerSec: float64(refs) / scalarSecs,
				BatchRefsPerSec:  float64(refs) / batchSecs[pi],
				Speedup:          scalarSecs / batchSecs[pi],
			})
			for ci := range chunks {
				sweep[ci] = append(sweep[ci], sweepRow{
					Org:             string(org),
					BatchRefsPerSec: float64(refs) / batchSecs[ci],
					Speedup:         scalarSecs / batchSecs[ci],
				})
			}
		}
	}

	var vsPre float64
	for _, r := range rows {
		b.Logf("%-18s scalar %12.0f refs/s   batch %12.0f refs/s   %.2fx",
			r.Org, r.ScalarRefsPerSec, r.BatchRefsPerSec, r.Speedup)
		if r.Org == string(hybridvc.HybridManySegSC) {
			vsPre = r.BatchRefsPerSec / preRefactorScalarRefsPerSec
			b.Logf("%-18s batch vs pre-refactor scalar loop (%.0f refs/s @ 8488e5e): %.2fx",
				r.Org, float64(preRefactorScalarRefsPerSec), vsPre)
			b.ReportMetric(vsPre, "speedup-vs-prerefactor")
		}
	}
	chunkSweep := make([]map[string]any, len(chunks))
	for ci, chunk := range chunks {
		chunkSweep[ci] = map[string]any{
			"chunk":         chunk,
			"organizations": sweep[ci],
		}
	}
	out, err := json.MarshalIndent(map[string]any{
		"name":          "hotpath",
		"refs_per_org":  refs,
		"chunk":         primary,
		"organizations": rows,
		"chunk_sweep":   chunkSweep,
		"prerefactor_baseline": map[string]any{
			"commit":              "8488e5e",
			"org":                 string(hybridvc.HybridManySegSC),
			"scalar_refs_per_sec": float64(preRefactorScalarRefsPerSec),
			"speedup":             vsPre,
		},
	}, "", "  ")
	if err == nil {
		// BENCH_HOTPATH_OUT redirects the result file so regression checks
		// (make bench-check) can compare a fresh run against the committed
		// BENCH_hotpath.json without overwriting it.
		path := os.Getenv("BENCH_HOTPATH_OUT")
		if path == "" {
			path = "BENCH_hotpath.json"
		}
		if werr := os.WriteFile(path, append(out, '\n'), 0o644); werr != nil {
			b.Logf("%s not written: %v", path, werr)
		}
	}
}
