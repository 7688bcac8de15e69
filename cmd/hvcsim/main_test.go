package main

import (
	"strings"
	"testing"
)

// validOptions returns an option set that passes validation; tests
// perturb one field at a time.
func validOptions() options {
	return options{
		org:       "hybrid-manyseg+sc",
		workloads: []string{"gups"},
		insns:     1000,
		cores:     1,
		dtlb:      1024,
		ic:        32 << 10,
	}
}

// TestValidateExitCodes pins the CLI misuse contract: each class of bad
// invocation maps to its documented exit code with an actionable
// message, and a valid invocation passes.
func TestValidateExitCodes(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*options)
		code    int
		wantMsg string
	}{
		{"valid", func(o *options) {}, 0, ""},
		{"unknown org", func(o *options) { o.org = "no-such-org" }, exitUnknownOrg, "unknown organization"},
		{"compare with org", func(o *options) { o.compare, o.orgSet = true, true }, exitBadFlags, "-compare"},
		{"compare alone ignores org", func(o *options) { o.compare = true; o.org = "ignored" }, 0, ""},
		{"zero cores", func(o *options) { o.cores = 0 }, exitBadFlags, "-cores"},
		{"too many cores", func(o *options) { o.cores = 65 }, exitBadFlags, "-cores"},
		{"zero insns", func(o *options) { o.insns = 0 }, exitBadFlags, "-insns"},
		{"negative llc", func(o *options) { o.llc = -1 }, exitBadFlags, "-llc"},
		{"zero dtlb", func(o *options) { o.dtlb = 0 }, exitBadFlags, "-dtlb"},
		{"zero ic", func(o *options) { o.ic = 0 }, exitBadFlags, "-ic"},
		{"unbuildable llc", func(o *options) { o.llc = 12345 }, exitBadFlags, "-llc 12345"},
		{"unbuildable dtlb", func(o *options) { o.dtlb = 3 }, exitBadFlags, "-dtlb 3"},
		{"unbuildable ic", func(o *options) { o.ic = 1000 }, exitBadFlags, "-ic 1000"},
		{"no workloads", func(o *options) { o.workloads = nil }, exitBadFlags, "-workloads"},
		{"unknown workload", func(o *options) { o.workloads = []string{"gups", "nope"} }, exitBadFlags, `"nope"`},
		{"interval without consumer", func(o *options) { o.interval = 5000 }, exitBadFlags, "-interval"},
		{"interval with timeline", func(o *options) { o.interval = 5000; o.timeline = "t.csv" }, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := validOptions()
			tc.mutate(&o)
			code, msg := o.validate()
			if code != tc.code {
				t.Fatalf("validate() = (%d, %q), want code %d", code, msg, tc.code)
			}
			if tc.wantMsg != "" && !strings.Contains(msg, tc.wantMsg) {
				t.Errorf("message %q does not mention %q", msg, tc.wantMsg)
			}
			if code == 0 && msg != "" {
				t.Errorf("valid options produced message %q", msg)
			}
		})
	}
}

// TestSplitWorkloads pins the -workloads parsing: whitespace trimmed,
// empty entries dropped.
func TestSplitWorkloads(t *testing.T) {
	got := splitWorkloads(" gups, mcf ,,graph500 ")
	want := []string{"gups", "mcf", "graph500"}
	if len(got) != len(want) {
		t.Fatalf("splitWorkloads = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitWorkloads = %v, want %v", got, want)
		}
	}
}
