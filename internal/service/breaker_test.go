package service

import (
	"testing"
	"time"
)

// fakeClock steps a breaker through time deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestBreaker(threshold time.Duration, trips int, cooldown time.Duration) (*breaker, *fakeClock) {
	b := newBreaker(threshold, trips, cooldown)
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	b.now = clk.now
	return b, clk
}

// TestBreakerStateMachine walks the full closed → open → half-open →
// closed cycle and the half-open → open relapse, on an injected clock.
func TestBreakerStateMachine(t *testing.T) {
	b, clk := newTestBreaker(100*time.Millisecond, 3, 5*time.Second)

	// Closed: fast pickups keep it closed; slow streaks below the trip
	// count reset on a fast one.
	for i := 0; i < 2; i++ {
		b.observe(200 * time.Millisecond)
	}
	b.observe(10 * time.Millisecond) // resets consec
	b.observe(200 * time.Millisecond)
	b.observe(200 * time.Millisecond)
	if st, _, _ := b.snapshot(); st != BreakerClosed {
		t.Fatalf("state = %s, want closed (streak was reset)", st)
	}
	if !b.admit() {
		t.Fatal("closed breaker refused admission")
	}

	// Third consecutive slow pickup trips it.
	b.observe(200 * time.Millisecond)
	st, tripped, _ := b.snapshot()
	if st != BreakerOpen || tripped != 1 {
		t.Fatalf("state/tripped = %s/%d, want open/1", st, tripped)
	}
	if b.admit() {
		t.Fatal("open breaker admitted a fresh submission")
	}
	if _, _, shed := b.snapshot(); shed != 1 {
		t.Fatalf("shed = %d, want 1", shed)
	}
	if ra := b.retryAfter(); ra < 1 || ra > 5 {
		t.Fatalf("retryAfter = %d, want within cooldown", ra)
	}

	// Cooldown elapses → half-open admits a probe.
	clk.advance(5 * time.Second)
	if !b.admit() {
		t.Fatal("breaker did not half-open after cooldown")
	}
	if st, _, _ := b.snapshot(); st != BreakerHalfOpen {
		t.Fatalf("state = %s, want half-open", st)
	}

	// Slow probe relapses to open.
	b.observe(200 * time.Millisecond)
	if st, tripped, _ := b.snapshot(); st != BreakerOpen || tripped != 2 {
		t.Fatalf("state/tripped = %s/%d, want open/2 after slow probe", st, tripped)
	}

	// Second cooldown, fast probe closes it for good.
	clk.advance(5 * time.Second)
	if !b.admit() {
		t.Fatal("no probe admitted after second cooldown")
	}
	b.observe(10 * time.Millisecond)
	if st, _, _ := b.snapshot(); st != BreakerClosed {
		t.Fatalf("state = %s, want closed after fast probe", st)
	}
	if !b.admit() {
		t.Fatal("closed breaker refused admission after recovery")
	}
}

// TestBreakerDisabled: a zero threshold never sheds and never trips.
func TestBreakerDisabled(t *testing.T) {
	b, _ := newTestBreaker(0, 1, time.Second)
	for i := 0; i < 10; i++ {
		b.observe(time.Hour)
		if !b.admit() {
			t.Fatal("disabled breaker shed a submission")
		}
	}
	if st, tripped, shed := b.snapshot(); st != BreakerClosed || tripped != 0 || shed != 0 {
		t.Fatalf("disabled breaker reported %s/%d/%d", st, tripped, shed)
	}
}

// TestBreakerStateValue pins the gauge mapping.
func TestBreakerStateValue(t *testing.T) {
	for state, want := range map[string]float64{
		BreakerClosed: 0, BreakerHalfOpen: 1, BreakerOpen: 2,
	} {
		if got := BreakerStateValue(state); got != want {
			t.Errorf("BreakerStateValue(%s) = %v, want %v", state, got, want)
		}
	}
}
