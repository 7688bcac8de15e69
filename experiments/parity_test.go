package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
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
