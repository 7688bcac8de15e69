// Command benchcheck gates hot-path performance regressions: it compares
// a freshly measured BENCH_hotpath.json against the committed baseline
// and exits non-zero when any organization's batched throughput dropped
// by more than the tolerance, or when any organization's batch/scalar
// speedup in the fresh run fell below the floor — the batched path must
// never be slower than the scalar path it replaces (the virt-2d 0.96x
// regression is the canonical example the floor exists to catch).
//
// The allowed regression is the -tolerance flag (default 0.10 = 10%), so
// gates with different noise floors can run the same checker with
// different slack. The speedup floor is the -speedup-floor flag (default
// 1.0; negative disables it, for results files that carry no speedup
// column).
//
// Usage (see `make bench-check`):
//
//	benchcheck -base BENCH_hotpath.json -new /tmp/fresh.json -tolerance 0.10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"hybridvc/internal/buildinfo"
)

// benchFile mirrors the subset of BENCH_hotpath.json the check reads.
type benchFile struct {
	Organizations []benchRow `json:"organizations"`
}

type benchRow struct {
	Org             string  `json:"org"`
	BatchRefsPerSec float64 `json:"batch_refs_per_sec"`
	Speedup         float64 `json:"speedup"`
}

func main() {
	base := flag.String("base", "BENCH_hotpath.json", "recorded baseline results")
	fresh := flag.String("new", "", "freshly measured results to check")
	tolerance := flag.Float64("tolerance", 0.10, "max allowed fractional regression per organization (0 <= t < 1)")
	speedupFloor := flag.Float64("speedup-floor", 1.0, "min batch/scalar speedup per organization in the fresh run (negative disables)")
	version := buildinfo.Flag()
	flag.Parse()
	buildinfo.HandleFlag(version, "benchcheck")
	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -new is required")
		os.Exit(2)
	}
	if err := validateTolerance(*tolerance); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	regressions, err := check(*base, *fresh, *tolerance, *speedupFloor)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "benchcheck: REGRESSION:", r)
		}
		os.Exit(1)
	}
	fmt.Println("benchcheck: ok — no organization regressed beyond the tolerance")
}

// validateTolerance rejects a -tolerance outside [0, 1): below 0 would
// fail every run, and 1 or above would pass any regression including a
// drop to zero, so both are refused rather than silently gating nothing.
func validateTolerance(tol float64) error {
	if tol < 0 || tol >= 1 {
		return fmt.Errorf("-tolerance %v out of range: want 0 <= t < 1 (fraction of baseline throughput)", tol)
	}
	return nil
}

// check compares the fresh batch throughput of every baseline organization
// and returns one message per regression beyond the threshold, plus one
// per fresh organization whose batch/scalar speedup fell below the floor
// (speedupFloor < 0 disables that gate). Fresh organizations missing from
// the baseline are ignored for the throughput comparison (new design
// points) but still face the speedup floor; baseline organizations missing
// from the fresh run are reported — a silently dropped row must not pass
// the gate.
func check(basePath, freshPath string, threshold, speedupFloor float64) ([]string, error) {
	baseRows, err := load(basePath)
	if err != nil {
		return nil, err
	}
	freshRows, err := load(freshPath)
	if err != nil {
		return nil, err
	}
	var regressions []string
	for org, b := range baseRows {
		f, ok := freshRows[org]
		if !ok {
			regressions = append(regressions,
				fmt.Sprintf("%s: present in %s but missing from %s", org, basePath, freshPath))
			continue
		}
		floor := b.BatchRefsPerSec * (1 - threshold)
		if f.BatchRefsPerSec < floor {
			regressions = append(regressions, fmt.Sprintf(
				"%s: batch %.0f refs/s < %.0f (baseline %.0f - %.0f%%)",
				org, f.BatchRefsPerSec, floor, b.BatchRefsPerSec, 100*threshold))
		}
	}
	if speedupFloor >= 0 {
		for org, f := range freshRows {
			if f.Speedup < speedupFloor {
				regressions = append(regressions, fmt.Sprintf(
					"%s: batch/scalar speedup %.2fx < %.2fx floor — the batched path must not be slower than scalar",
					org, f.Speedup, speedupFloor))
			}
		}
	}
	sort.Strings(regressions)
	return regressions, nil
}

// load reads a results file into org -> row.
func load(path string) (map[string]benchRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.Organizations) == 0 {
		return nil, fmt.Errorf("%s: no organization rows", path)
	}
	out := make(map[string]benchRow, len(bf.Organizations))
	for _, r := range bf.Organizations {
		out[r.Org] = r
	}
	return out, nil
}
