package main

import (
	"os/exec"
	"syscall"
	"testing"
)

// TestDiedOf pins which stop errors startLives accepts: only death by the
// named signal, not another signal, a non-zero exit or a clean one.
func TestDiedOf(t *testing.T) {
	for _, tc := range []struct {
		script string
		want   bool
	}{
		{"kill -TERM $$", true},
		{"kill -INT $$", false},
		{"exit 3", false},
		{"exit 0", false},
	} {
		err := exec.Command("sh", "-c", tc.script).Run()
		if got := diedOf(err, syscall.SIGTERM); got != tc.want {
			t.Errorf("%q: diedOf(%v, SIGTERM) = %v, want %v", tc.script, err, got, tc.want)
		}
	}
}
