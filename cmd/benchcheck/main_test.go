package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeResults(t *testing.T, name string, rows string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	content := `{"organizations":[` + rows + `]}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckPassesWithinThreshold(t *testing.T) {
	base := writeResults(t, "base.json",
		`{"org":"baseline","batch_refs_per_sec":1000000},
		 {"org":"hybrid-manyseg+sc","batch_refs_per_sec":500000}`)
	fresh := writeResults(t, "fresh.json",
		`{"org":"baseline","batch_refs_per_sec":950000},
		 {"org":"hybrid-manyseg+sc","batch_refs_per_sec":460000}`)
	regs, err := check(base, fresh, 0.10, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("want no regressions, got %v", regs)
	}
}

func TestCheckFlagsRegression(t *testing.T) {
	base := writeResults(t, "base.json",
		`{"org":"baseline","batch_refs_per_sec":1000000}`)
	fresh := writeResults(t, "fresh.json",
		`{"org":"baseline","batch_refs_per_sec":850000}`)
	regs, err := check(base, fresh, 0.10, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "baseline") {
		t.Errorf("want one baseline regression, got %v", regs)
	}
}

func TestCheckFlagsMissingOrg(t *testing.T) {
	base := writeResults(t, "base.json",
		`{"org":"baseline","batch_refs_per_sec":1000000},
		 {"org":"rmm","batch_refs_per_sec":800000}`)
	fresh := writeResults(t, "fresh.json",
		`{"org":"baseline","batch_refs_per_sec":1000000}`)
	regs, err := check(base, fresh, 0.10, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "rmm") {
		t.Errorf("want rmm reported missing, got %v", regs)
	}
}

func TestCheckIgnoresNewOrgs(t *testing.T) {
	base := writeResults(t, "base.json",
		`{"org":"baseline","batch_refs_per_sec":1000000}`)
	fresh := writeResults(t, "fresh.json",
		`{"org":"baseline","batch_refs_per_sec":1000000},
		 {"org":"brand-new","batch_refs_per_sec":10}`)
	regs, err := check(base, fresh, 0.10, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("new orgs must not fail the gate, got %v", regs)
	}
}

func TestCheckFlagsSpeedupBelowFloor(t *testing.T) {
	// The virt-2d 0.96x scenario: throughput within tolerance, but the
	// batched path is slower than scalar. The default 1.0 floor must
	// catch it even though the refs/sec comparison passes.
	base := writeResults(t, "base.json",
		`{"org":"baseline","batch_refs_per_sec":1000000,"speedup":1.20},
		 {"org":"virt-2d","batch_refs_per_sec":800000,"speedup":1.02}`)
	fresh := writeResults(t, "fresh.json",
		`{"org":"baseline","batch_refs_per_sec":1000000,"speedup":1.20},
		 {"org":"virt-2d","batch_refs_per_sec":790000,"speedup":0.96}`)
	regs, err := check(base, fresh, 0.10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "virt-2d") || !strings.Contains(regs[0], "0.96") {
		t.Errorf("want one virt-2d speedup regression, got %v", regs)
	}
}

func TestCheckSpeedupFloorAppliesToNewOrgs(t *testing.T) {
	// New design points skip the baseline throughput comparison but not
	// the speedup floor: a brand-new org must still beat scalar.
	base := writeResults(t, "base.json",
		`{"org":"baseline","batch_refs_per_sec":1000000,"speedup":1.20}`)
	fresh := writeResults(t, "fresh.json",
		`{"org":"baseline","batch_refs_per_sec":1000000,"speedup":1.20},
		 {"org":"brand-new","batch_refs_per_sec":900000,"speedup":0.50}`)
	regs, err := check(base, fresh, 0.10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "brand-new") {
		t.Errorf("want one brand-new speedup regression, got %v", regs)
	}
}

func TestCheckSpeedupFloorCoversPayloadOrgs(t *testing.T) {
	// The typed-payload organizations (victima, rlt-vc) land as fresh rows
	// before the committed baseline carries them. They skip the throughput
	// comparison like any new design point, but each must independently
	// clear the batch/scalar floor — one failing row must be reported even
	// when the other passes.
	base := writeResults(t, "base.json",
		`{"org":"baseline","batch_refs_per_sec":1000000,"speedup":1.20}`)
	fresh := writeResults(t, "fresh.json",
		`{"org":"baseline","batch_refs_per_sec":1000000,"speedup":1.20},
		 {"org":"victima","batch_refs_per_sec":700000,"speedup":1.15},
		 {"org":"rlt-vc","batch_refs_per_sec":650000,"speedup":0.93}`)
	regs, err := check(base, fresh, 0.10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "rlt-vc") || !strings.Contains(regs[0], "0.93") {
		t.Errorf("want exactly the rlt-vc speedup regression, got %v", regs)
	}
	for _, r := range regs {
		if strings.Contains(r, "victima") {
			t.Errorf("victima cleared the floor but was flagged: %v", r)
		}
	}
}

func TestCheckNegativeFloorDisablesSpeedupGate(t *testing.T) {
	base := writeResults(t, "base.json",
		`{"org":"baseline","batch_refs_per_sec":1000000}`)
	fresh := writeResults(t, "fresh.json",
		`{"org":"baseline","batch_refs_per_sec":1000000}`)
	// Rows without a speedup column decode as 0; a negative floor must
	// keep legacy files passing.
	regs, err := check(base, fresh, 0.10, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("disabled floor still flagged: %v", regs)
	}
}

func TestCheckRejectsEmptyFile(t *testing.T) {
	base := writeResults(t, "base.json", ``)
	fresh := writeResults(t, "fresh.json",
		`{"org":"baseline","batch_refs_per_sec":1}`)
	if _, err := check(base, fresh, 0.10, -1); err == nil {
		t.Error("want error for results file with no rows")
	}
}

func TestPickToleranceValidation(t *testing.T) {
	cases := []struct {
		name      string
		tolerance float64
		wantErr   bool
	}{
		{"default", 0.10, false},
		{"explicit tolerance", 0.25, false},
		{"negative", -0.1, true},
		{"one", 1.0, true},
		{"above one", 5, true},
		{"zero is allowed", 0, false},
	}
	for _, tc := range cases {
		if err := validateTolerance(tc.tolerance); (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
	}
}
