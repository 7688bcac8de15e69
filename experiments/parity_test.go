package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridvc"
	"hybridvc/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

// TestGoldenParity proves refactors of the access path preserve behavior:
// every organization's full stat fingerprint on the fixed workload
// prefixes must match the checked-in golden byte for byte, with the sweep
// runner at one worker and at eight (determinism across worker counts).
// Regenerate deliberately with `go test ./experiments -run GoldenParity -update`.
func TestGoldenParity(t *testing.T) {
	skipIfRace(t)
	golden := filepath.Join("testdata", "parity_quick.golden")

	for _, jobs := range []int{1, 8} {
		tbl, err := Parity(Quick, RunOptions{Pool: NewPool(jobs)})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		got := tbl.String()

		if *updateGolden {
			if jobs == 1 {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (generate with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("jobs=%d: parity table diverged from golden\n--- got ---\n%s\n--- want ---\n%s",
				jobs, got, want)
		}
	}
}

// TestGoldenTimelines pins every interval of a timeline run, field by
// field: every organization on gups at one core, and every multi-core
// organization on postgres at four, each cell's NDJSON timeline under a
// "# <org> <workload> <cores>c" line. The sweep runner runs the cells at
// one worker and at eight. Golden parity runs no timeline, so this is the
// test that pins interval contents and the walk-depth histogram.
// Regenerate deliberately with `go test ./experiments -run GoldenTimelines -update`.
func TestGoldenTimelines(t *testing.T) {
	skipIfRace(t)
	golden := filepath.Join("testdata", "timelines_quick.golden")

	var cells []Cell
	add := func(org hybridvc.Organization, wl string, cores int, interval uint64) {
		simCfg := sim.DefaultConfig()
		simCfg.Interval = interval
		cells = append(cells, Cell{
			Label:        fmt.Sprintf("timelines/%s/%dc/%s", wl, cores, org),
			Config:       hybridvc.Config{Org: org, Cores: cores, Sim: simCfg},
			Workloads:    []string{wl},
			Instructions: 30_000,
			Extract: func(sys *hybridvc.System, _ sim.Report) (any, error) {
				var b strings.Builder
				fmt.Fprintf(&b, "# %s %s %dc\n", org, wl, cores)
				if err := sys.LastSim.Timeline().WriteNDJSON(&b); err != nil {
					return nil, err
				}
				return b.String(), nil
			},
		})
	}
	for _, org := range hybridvc.Organizations() {
		add(org, "gups", 1, 10_000)
	}
	for _, org := range hybridvc.Organizations() {
		if org != hybridvc.OVC { // the OVC model is single-core
			add(org, "postgres", 4, 40_000)
		}
	}

	for _, jobs := range []int{1, 8} {
		results, err := RunCells(cells, RunOptions{Pool: NewPool(jobs)})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var b strings.Builder
		for _, r := range results {
			b.WriteString(r.Value.(string))
		}
		got := b.String()

		if *updateGolden {
			if jobs == 1 {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (generate with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("jobs=%d: timelines diverged from golden at byte %d of %d",
				jobs, firstDiffByte(got, string(want)), len(want))
		}
	}
}

// firstDiffByte returns the offset of the first byte where a and b differ.
func firstDiffByte(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
