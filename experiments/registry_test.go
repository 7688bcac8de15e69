package experiments

import (
	"strings"
	"testing"

	"hybridvc/internal/stats"
)

func noopRun(Scale, RunOptions) ([]*stats.Table, error) { return nil, nil }

// removeExperiment undoes a test registration so registry-mutating tests
// leave the canonical registry exactly as init built it.
func removeExperiment(name string) {
	delete(byName, name)
	for i, e := range registry {
		if e.Name == name {
			registry = append(registry[:i], registry[i+1:]...)
			return
		}
	}
}

func TestAddRejectsDuplicateName(t *testing.T) {
	const name = "registry-test-dup"
	if err := Add(Experiment{Name: name, Description: "first", Run: noopRun}); err != nil {
		t.Fatalf("first Add: %v", err)
	}
	defer removeExperiment(name)

	err := Add(Experiment{Name: name, Description: "second", Run: noopRun})
	if err == nil {
		t.Fatal("duplicate Add succeeded; want an error")
	}
	if !strings.Contains(err.Error(), name) {
		t.Errorf("duplicate error %q does not name the experiment", err)
	}

	// The original registration must be intact — not overwritten.
	e, ok := Lookup(name)
	if !ok || e.Description != "first" {
		t.Errorf("Lookup(%q) = %+v, %v; want the first registration intact", name, e, ok)
	}
	count := 0
	for _, n := range Names() {
		if n == name {
			count++
		}
	}
	if count != 1 {
		t.Errorf("registry lists %q %d times, want exactly once", name, count)
	}
}

func TestAddRejectsIncompleteEntries(t *testing.T) {
	if err := Add(Experiment{Name: "", Run: noopRun}); err == nil {
		t.Error("Add with empty name succeeded; want error")
	}
	if err := Add(Experiment{Name: "registry-test-norun"}); err == nil {
		t.Error("Add with nil Run succeeded; want error")
		removeExperiment("registry-test-norun")
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	const name = "registry-test-panic"
	Register(Experiment{Name: name, Run: noopRun})
	defer removeExperiment(name)
	defer func() {
		if recover() == nil {
			t.Error("Register of a duplicate did not panic")
		}
	}()
	Register(Experiment{Name: name, Run: noopRun})
}
