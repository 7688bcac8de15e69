// Package chaos is hvcd's deterministic service-chaos harness: a seeded
// fault injector that plugs into the durable result store's write hooks,
// plus the test suite (make chaos, race-enabled) that drives a live
// daemon through injected disk write errors, torn records, jobs blowing
// their deadlines and clients disconnecting mid-stream, and asserts the
// robustness contract — no corrupt record is ever served, no watcher
// deadlocks, and the daemon converges back to healthy once the faults
// stop.
//
// Determinism: faults fire on a fixed write cadence (every Nth write)
// and fault parameters (torn-write offsets, flipped bits) come from one
// rand.Rand seeded at construction, so a failing chaos run replays
// exactly from its seed.
package chaos

import (
	"errors"
	"math/rand"
	"sync"

	"hybridvc/internal/service/store"
)

// ErrInjected is the error every injected disk-write fault returns, so
// tests (and logs) can tell injected failures from real ones.
var ErrInjected = errors.New("chaos: injected disk write error")

// Options selects the faults and their cadence. Cadences are 1-based
// counts over store writes: Every=3 means writes 3, 6, 9, … are hit.
// A zero cadence disables that fault.
type Options struct {
	// Seed drives all randomized fault parameters.
	Seed int64
	// FailWriteEvery makes every Nth Put fail outright with ErrInjected
	// before touching the disk (a full-disk / EIO stand-in).
	FailWriteEvery int
	// TearWriteEvery truncates every Nth Put's framed record at a seeded
	// offset before it hits the disk (a torn / partial write).
	TearWriteEvery int
	// FlipBitEvery flips one seeded bit in every Nth Put's framed record
	// (silent media corruption).
	FlipBitEvery int
}

// Counts reports what the injector actually did.
type Counts struct {
	Writes  int // store writes observed
	Failed  int // writes failed with ErrInjected
	Torn    int // writes truncated
	Flipped int // writes bit-flipped
	// Keys affected per fault, in injection order.
	FailedKeys, TornKeys, FlippedKeys []string
}

// Injector produces the store hooks. One injector serves one store; it
// is safe for concurrent Puts.
type Injector struct {
	opts Options

	mu      sync.Mutex
	rng     *rand.Rand
	n       int // writes seen (BeforeWrite calls)
	stopped bool
	counts  Counts
	// fate decided in BeforeWrite, consumed by TransformRecord of the
	// same Put (keyed so concurrent Puts cannot cross wires).
	fates map[string]byte
}

const (
	fateTear = byte(iota + 1)
	fateFlip
)

// New builds an injector from seeded options.
func New(o Options) *Injector {
	return &Injector{
		opts:  o,
		rng:   rand.New(rand.NewSource(o.Seed)),
		fates: make(map[string]byte),
	}
}

// StoreHooks returns the hooks to place in service.Config.StoreHooks.
func (in *Injector) StoreHooks() store.Hooks {
	return store.Hooks{
		BeforeWrite:     in.beforeWrite,
		TransformRecord: in.transform,
	}
}

// StopFaults disables all injection from now on — the "faults stop"
// phase of a convergence test. Counters keep their totals.
func (in *Injector) StopFaults() {
	in.mu.Lock()
	in.stopped = true
	in.mu.Unlock()
}

// Counts snapshots what fired so far.
func (in *Injector) Counts() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	c := in.counts
	c.FailedKeys = append([]string(nil), in.counts.FailedKeys...)
	c.TornKeys = append([]string(nil), in.counts.TornKeys...)
	c.FlippedKeys = append([]string(nil), in.counts.FlippedKeys...)
	return c
}

// every reports whether the nth (1-based) write falls on the cadence.
func every(n, cadence int) bool { return cadence > 0 && n%cadence == 0 }

func (in *Injector) beforeWrite(key string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.stopped {
		return nil
	}
	in.n++
	in.counts.Writes++
	switch {
	case every(in.n, in.opts.FailWriteEvery):
		in.counts.Failed++
		in.counts.FailedKeys = append(in.counts.FailedKeys, key)
		return ErrInjected
	case every(in.n, in.opts.TearWriteEvery):
		in.fates[key] = fateTear
	case every(in.n, in.opts.FlipBitEvery):
		in.fates[key] = fateFlip
	}
	return nil
}

func (in *Injector) transform(key string, encoded []byte) []byte {
	in.mu.Lock()
	defer in.mu.Unlock()
	fate := in.fates[key]
	delete(in.fates, key)
	if in.stopped || fate == 0 || len(encoded) == 0 {
		return encoded
	}
	switch fate {
	case fateTear:
		in.counts.Torn++
		in.counts.TornKeys = append(in.counts.TornKeys, key)
		return encoded[:in.rng.Intn(len(encoded))]
	case fateFlip:
		in.counts.Flipped++
		in.counts.FlippedKeys = append(in.counts.FlippedKeys, key)
		mangled := append([]byte(nil), encoded...)
		// Flip inside the back half — always checksummed payload, never
		// the header's unverified reserved bytes.
		half := len(mangled) / 2
		mangled[half+in.rng.Intn(len(mangled)-half)] ^= 1 << in.rng.Intn(8)
		return mangled
	}
	return encoded
}
