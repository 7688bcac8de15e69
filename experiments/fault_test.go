package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"hybridvc"
	"hybridvc/internal/fault"
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

// TestFaultCheckerFourCores attaches the fault injector and the invariant
// checker to every multi-core organization at four cores, on the
// coherence-heavy postgres mix of the parity table, where snoops,
// back-invalidations and flushes reach lines that other cores hold. Every
// check after an injection, and a final one, must find the hierarchy
// consistent: MESI, inclusion, and holder masks that name exactly the
// cores whose L2 holds each LLC line.
func TestFaultCheckerFourCores(t *testing.T) {
	skipIfRace(t)
	for _, org := range hybridvc.Organizations() {
		if org == hybridvc.OVC {
			continue // the OVC model is single-core
		}
		t.Run(string(org), func(t *testing.T) {
			t.Parallel()
			sys, err := hybridvc.New(hybridvc.Config{Org: org, Cores: 4})
			if err != nil {
				t.Fatal(err)
			}
			inj, ch := sys.InjectFaults(fault.Config{Seed: 13, Period: 1024})
			if err := sys.LoadSpec(parityCoherenceSpec()); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(10_000); err != nil {
				t.Fatal(err)
			}
			if err := inj.Err(); err != nil {
				t.Fatalf("under faults: %v", err)
			}
			if err := ch.Check(); err != nil {
				t.Fatalf("final check: %v", err)
			}
			if ch.Checks < 2 {
				t.Fatalf("the checker ran %d times, want a check after each injection and a final one", ch.Checks)
			}
		})
	}
}
