package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenFaultSweep pins the injector's determinism end to end: the
// fault sweep's full table — injection schedules AND the fault-perturbed
// timing fingerprints — must match the checked-in golden byte for byte,
// at one worker and at eight. Regenerate deliberately with
// `go test ./experiments -run GoldenFaultSweep -update`.
func TestGoldenFaultSweep(t *testing.T) {
	skipIfRace(t)
	golden := filepath.Join("testdata", "faults_quick.golden")

	for _, jobs := range []int{1, 8} {
		tbl, err := FaultSweep(Quick, RunOptions{Pool: NewPool(jobs)})
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
			t.Errorf("jobs=%d: fault sweep diverged from golden\n--- got ---\n%s\n--- want ---\n%s",
				jobs, got, want)
		}
	}
}
