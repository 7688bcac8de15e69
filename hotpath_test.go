// Tests of the batched access hot path: AccessBatch must be
// result-identical to scalar Access calls on every organization, and
// allocation-free once the structures it touches are warm.
package hybridvc_test

import (
	"testing"

	"hybridvc"
	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
)

// newHotpathSystem builds a system with one loaded workload. A small LLC
// keeps the miss paths (delayed translation, writeback translation) busy.
func newHotpathSystem(t testing.TB, org hybridvc.Organization, wl string) *hybridvc.System {
	return newHotpathSystemCores(t, org, wl, 1)
}

// newHotpathSystemCores is newHotpathSystem on cores cores.
func newHotpathSystemCores(t testing.TB, org hybridvc.Organization, wl string, cores int) *hybridvc.System {
	t.Helper()
	sys, err := hybridvc.New(hybridvc.Config{Org: org, Cores: cores, LLCBytes: 256 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadWorkload(wl); err != nil {
		t.Fatal(err)
	}
	return sys
}

// collectRequests draws n data references round-robin from the system's
// generators, issuing generator i's references from core i, so a
// multi-process workload needs a core per process. Two systems built with
// the same seed yield the same VA/kind sequence, so equivalence tests can
// drive twins with matching streams.
func collectRequests(sys *hybridvc.System, n int) []core.Request {
	gens := sys.Generators()
	reqs := make([]core.Request, 0, n)
	for c := 0; len(reqs) < n; c = (c + 1) % len(gens) {
		in := gens[c].Next()
		if !in.IsMem || in.Mispredict {
			continue
		}
		kind := cache.Read
		if in.IsStore {
			kind = cache.Write
		}
		reqs = append(reqs, core.Request{Core: c, Kind: kind, VA: in.VA, Proc: gens[c].Proc})
	}
	return reqs
}

// TestAccessBatchMatchesScalar drives two identically seeded systems of
// every organization with the same reference stream — one through scalar
// Access calls, one through chunked AccessBatch — and requires identical
// per-reference results (latency, hit level, LLC miss, fault).
func TestAccessBatchMatchesScalar(t *testing.T) {
	const n, chunk = 4000, 128
	for _, org := range hybridvc.Organizations() {
		org := org
		t.Run(string(org), func(t *testing.T) {
			scalarSys := newHotpathSystem(t, org, "gups")
			batchSys := newHotpathSystem(t, org, "gups")
			sreqs := collectRequests(scalarSys, n)
			breqs := collectRequests(batchSys, n)
			for i := range sreqs {
				if sreqs[i].VA != breqs[i].VA || sreqs[i].Kind != breqs[i].Kind {
					t.Fatalf("request streams diverge at %d: %+v vs %+v", i, sreqs[i], breqs[i])
				}
			}

			want := make([]core.Result, n)
			for i := range sreqs {
				want[i] = scalarSys.Mem.Access(sreqs[i])
			}
			got := make([]core.Result, n)
			for lo := 0; lo < n; lo += chunk {
				hi := min(lo+chunk, n)
				batchSys.Mem.AccessBatch(breqs[lo:hi], got[lo:hi])
			}

			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("result %d (VA %#x, kind %v): scalar %+v, batch %+v",
						i, sreqs[i].VA, sreqs[i].Kind, want[i], got[i])
				}
			}
		})
	}
}

// TestAccessBatchShortResultPanics pins the documented contract.
func TestAccessBatchShortResultPanics(t *testing.T) {
	sys := newHotpathSystem(t, hybridvc.HybridManySegSC, "stream")
	reqs := collectRequests(sys, 2)
	defer func() {
		if recover() == nil {
			t.Error("AccessBatch with short result slice did not panic")
		}
	}()
	sys.Mem.AccessBatch(reqs, make([]core.Result, 1))
}

// TestAccessBatchLongResultTailUntouched pins the windowing contract:
// when res is longer than reqs, only the first len(reqs) entries are
// written and the tail is left exactly as the caller had it (not
// zeroed), so a chunking driver can batch into windows of one large
// reusable buffer.
func TestAccessBatchLongResultTailUntouched(t *testing.T) {
	const n, extra = 100, 60
	sys := newHotpathSystem(t, hybridvc.HybridManySegSC, "gups")
	reqs := collectRequests(sys, n)
	sentinel := core.Result{Latency: 0xdeadbeef, HitLevel: 9, LLCMiss: true, Fault: true}
	res := make([]core.Result, n+extra)
	for i := n; i < len(res); i++ {
		res[i] = sentinel
	}
	sys.Mem.AccessBatch(reqs, res)
	for i := 0; i < n; i++ {
		if res[i] == sentinel {
			t.Fatalf("res[%d] not written", i)
		}
	}
	for i := n; i < len(res); i++ {
		if res[i] != sentinel {
			t.Fatalf("res[%d] in the tail was touched: %+v", i, res[i])
		}
	}
}

// TestAccessBatchZeroLength pins the fast path: an empty batch returns
// immediately without touching engine state (no energy, no statistics)
// or the result slice.
func TestAccessBatchZeroLength(t *testing.T) {
	sys := newHotpathSystem(t, hybridvc.HybridManySegSC, "gups")
	// Warm with a little real traffic so "no state change" is a
	// meaningful claim about a live system, not a fresh one.
	warm := collectRequests(sys, 64)
	sys.Mem.AccessBatch(warm, make([]core.Result, len(warm)))

	energyBefore := sys.Mem.Energy().Dynamic()
	accessesBefore := sys.Mem.Hierarchy().LLC().Stats.Accesses()
	sentinel := core.Result{Latency: 0xdeadbeef, HitLevel: 9}
	res := []core.Result{sentinel, sentinel}

	sys.Mem.AccessBatch(nil, res)
	sys.Mem.AccessBatch([]core.Request{}, nil)

	if got := sys.Mem.Energy().Dynamic(); got != energyBefore {
		t.Errorf("zero-length batch spent energy: %v -> %v", energyBefore, got)
	}
	if got := sys.Mem.Hierarchy().LLC().Stats.Accesses(); got != accessesBefore {
		t.Errorf("zero-length batch touched the LLC: %d -> %d accesses", accessesBefore, got)
	}
	for i, r := range res {
		if r != sentinel {
			t.Errorf("zero-length batch wrote res[%d]: %+v", i, r)
		}
	}
}

// TestAccessBatchSteadyStateAllocs requires the batched hot path to run
// allocation-free in the steady state: after a warm-up pass has grown the
// engine's scratch buffers and filled the caches, repeated AccessBatch
// calls over a fixed request set must not allocate at all. Beyond the
// paper's flagship organization it pins the two payload-carrying designs,
// whose front ends keep translations and synonym records in typed-payload
// blocks.
func TestAccessBatchSteadyStateAllocs(t *testing.T) {
	for _, org := range []hybridvc.Organization{
		hybridvc.HybridManySegSC, hybridvc.Victima, hybridvc.RLTVC,
	} {
		org := org
		t.Run(string(org), func(t *testing.T) { testSteadyStateAllocs(t, org) })
	}
}

// TestAccessBatchMissPathAllocs extends the allocation pin to the miss
// paths: page walks (1D and 2D), delayed translation and payload fills.
// After a warm-up stretch of gups, every organization must serve fresh
// 128-reference gups batches — mostly LLC misses — without allocating.
// The postgres-4c subtest pins the synonym path the same way: synonym-TLB
// hits and walks, RLT record hits and cross-core snoops, on four cores
// with four processes sharing a region. OVC is single-core, so it has no
// such subtest.
func TestAccessBatchMissPathAllocs(t *testing.T) {
	for _, org := range hybridvc.Organizations() {
		org := org
		t.Run(string(org), func(t *testing.T) {
			testMissPathAllocs(t, org, "gups", 1)
			if org == hybridvc.OVC {
				return
			}
			t.Run("postgres-4c", func(t *testing.T) {
				testMissPathAllocs(t, org, "postgres", 4)
			})
		})
	}
}

// testMissPathAllocs warms a cores-core system on workload wl, then
// requires fresh 128-reference batches to allocate nothing, and at least
// a quarter of their references to miss the LLC so the pin still covers
// the miss path.
func testMissPathAllocs(t *testing.T, org hybridvc.Organization, wl string, cores int) {
	const chunk, runs = 128, 20
	sys := newHotpathSystemCores(t, org, wl, cores)
	warm := collectRequests(sys, 8192)
	sys.Mem.AccessBatch(warm, make([]core.Result, len(warm)))

	// AllocsPerRun calls the function once more than runs.
	reqs := collectRequests(sys, (runs+1)*chunk)
	res := make([]core.Result, chunk)
	next, misses := 0, 0
	avg := testing.AllocsPerRun(runs, func() {
		sys.Mem.AccessBatch(reqs[next:next+chunk], res)
		next += chunk
		for i := range res {
			if res[i].LLCMiss {
				misses++
			}
		}
	})
	if avg != 0 {
		t.Errorf("miss-path AccessBatch allocates %.2f times per batch, want 0", avg)
	}
	if misses < next/4 {
		t.Errorf("only %d of %d references missed the LLC; the pin no longer covers the miss path", misses, next)
	}
}

func testSteadyStateAllocs(t *testing.T, org hybridvc.Organization) {
	sys := newHotpathSystem(t, org, "gups")
	g := sys.Generators()[0]

	// A fixed read set over the code region: 256 lines fit the L1, so the
	// steady state exercises the filter probe + virtual L1 hit path, the
	// common case the batching exists for.
	const lines = 256
	reqs := make([]core.Request, lines)
	for i := range reqs {
		va := g.CodeStart + addr.VA(uint64(i)*64)
		reqs[i] = core.Request{Core: 0, Kind: cache.Read, VA: va, Proc: g.Proc}
	}
	res := make([]core.Result, lines)

	// Warm: demand-fault the pages, fill the caches, grow scratch buffers.
	// A stretch of the real workload first also grows the miss-path
	// scratch (writeback snapshot, translator walk path).
	stream := collectRequests(sys, 4096)
	streamRes := make([]core.Result, len(stream))
	sys.Mem.AccessBatch(stream, streamRes)
	for i := 0; i < 3; i++ {
		sys.Mem.AccessBatch(reqs, res)
	}

	avg := testing.AllocsPerRun(50, func() {
		sys.Mem.AccessBatch(reqs, res)
	})
	if avg != 0 {
		t.Errorf("steady-state AccessBatch allocates %.2f times per call, want 0", avg)
	}
	for i := range res {
		if res[i].HitLevel != 1 {
			t.Fatalf("steady-state access %d not an L1 hit: %+v", i, res[i])
		}
	}

	// The probe layer must not break the guarantee in either state:
	// detached (the default — emission sites are bare nil-checks) or with
	// the counting probe attached (events pass by value, counters are
	// scalar fields).
	t.Run("counting-probe-attached", func(t *testing.T) {
		cp := &core.CountingProbe{}
		sys.Mem.SetProbe(cp)
		defer sys.Mem.SetProbe(nil)
		sys.Mem.AccessBatch(reqs, res)
		avg := testing.AllocsPerRun(50, func() {
			sys.Mem.AccessBatch(reqs, res)
		})
		if avg != 0 {
			t.Errorf("AccessBatch with CountingProbe allocates %.2f times per call, want 0", avg)
		}
		if cp.RouteTotal == 0 || cp.CacheAccesses == 0 {
			t.Error("counting probe saw no events while attached")
		}
	})
}
