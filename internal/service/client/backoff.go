package client

import (
	"math/rand"
	"time"
)

// Backoff parameterizes SubmitWait's retry pacing for retryable
// rejections (429/503) that carry no Retry-After hint: a capped
// jittered exponential. The zero value is usable; every field defaults.
type Backoff struct {
	// Base is the first retry's delay (default 100ms).
	Base time.Duration
	// Max caps any single computed delay (default 5s). A server-supplied
	// Retry-After is honoured as-is, uncapped.
	Max time.Duration
	// MaxElapsed bounds the total time spent retrying, measured from the
	// first attempt: once a computed wait would cross it, the last error
	// is returned instead of sleeping (default 2m).
	MaxElapsed time.Duration
	// Jitter is the fraction of each delay randomized away, spreading
	// synchronized retry herds: a delay d becomes uniform in
	// [d*(1-Jitter), d]. 0 defaults to 0.5; negative disables jitter.
	Jitter float64
}

// WithDefaults returns the policy with zero fields filled in.
func (b Backoff) WithDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	if b.MaxElapsed <= 0 {
		b.MaxElapsed = 2 * time.Minute
	}
	if b.Jitter == 0 {
		b.Jitter = 0.5
	}
	return b
}

// Delay computes the (jittered) delay before retry number attempt
// (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.Base
	for i := 0; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	if b.Jitter > 0 {
		d -= time.Duration(b.Jitter * rand.Float64() * float64(d))
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
