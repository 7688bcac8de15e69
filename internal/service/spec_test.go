package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestNormalizeCanonicalizes checks the content-addressing contract: a
// spec relying on defaults and a spec spelling the same defaults out
// explicitly must normalize to the same fields and hash to the same key.
func TestNormalizeCanonicalizes(t *testing.T) {
	defaulted := JobSpec{}
	explicit := JobSpec{
		Kind: KindSim, Org: "hybrid-manyseg+sc", Workloads: []string{"gups"},
		Instructions: 200_000, Cores: 1, Seed: 1, Interval: 10_000,
	}
	if err := defaulted.Normalize(); err != nil {
		t.Fatalf("defaulted: %v", err)
	}
	if err := explicit.Normalize(); err != nil {
		t.Fatalf("explicit: %v", err)
	}
	if dk, ek := defaulted.CacheKey(), explicit.CacheKey(); dk != ek {
		t.Errorf("defaulted key %s != explicit key %s", dk, ek)
	}
}

// TestCacheKeySensitivity: any behaviourally meaningful field change must
// move the key; two normalizations of the same spec must not.
func TestCacheKeySensitivity(t *testing.T) {
	base := JobSpec{}
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	baseKey := base.CacheKey()
	if again := base.CacheKey(); again != baseKey {
		t.Errorf("key not stable: %s then %s", baseKey, again)
	}

	variants := []JobSpec{
		{Seed: 2},
		{Instructions: 100_000},
		{Org: "baseline"},
		{Workloads: []string{"stream"}},
		{Interval: 5_000},
		{Kind: KindSweep, Experiment: "latency"},
	}
	seen := map[string]int{baseKey: -1}
	for i, v := range variants {
		if err := v.Normalize(); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		k := v.CacheKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d (key %s)", i, prev, k)
		}
		seen[k] = i
	}
}

// rejections are specs Normalize must refuse, each with a fragment of the
// error it must give.
var rejections = []struct {
	name string
	spec JobSpec
	want string
}{
	{"unknown kind", JobSpec{Kind: "batch"}, "unknown job kind"},
	{"unknown org", JobSpec{Org: "quantum"}, "unknown organization"},
	{"unknown workload", JobSpec{Workloads: []string{"nope"}}, "unknown workload"},
	{"ovc multicore", JobSpec{Org: "ovc", Cores: 2}, "single-core"},
	{"sweep fields on sim", JobSpec{Experiment: "fig9"}, "sweep-job fields"},
	{"sweep without experiment", JobSpec{Kind: KindSweep}, "needs an experiment"},
	{"unknown experiment", JobSpec{Kind: KindSweep, Experiment: "fig99"}, "unknown experiment"},
	{"bad scale", JobSpec{Kind: KindSweep, Experiment: "fig9", Scale: "huge"}, "unknown scale"},
	{"sim fields on sweep", JobSpec{Kind: KindSweep, Experiment: "fig9", Seed: 3}, "not meaningful"},

	// One past each limit.
	{"cores past limit", JobSpec{Cores: MaxCores + 1}, "cores 65 exceeds the limit of 64"},
	{"instructions past limit", JobSpec{Instructions: MaxInstructions + 1}, "instructions 1000000001 exceeds the limit of 1000000000"},
	{"llc past limit", JobSpec{LLCBytes: MaxLLCBytes + 1}, "llc_bytes 1073741825 is outside the limit of 1..1073741824"},
	{"llc twice the limit", JobSpec{LLCBytes: 2 * MaxLLCBytes}, "llc_bytes 2147483648 is outside"},
	{"delayed tlb past limit", JobSpec{DelayedTLBEntries: MaxDelayedTLBEntries + 1}, "delayed_tlb_entries 1048577 is outside the limit of 1..1048576"},
	{"index cache past limit", JobSpec{IndexCacheBytes: MaxIndexCacheBytes + 1}, "index_cache_bytes 16777217 is outside the limit of 1..16777216"},

	// Negative sizes, and geometries the simulator's constructors panic on.
	{"negative llc", JobSpec{LLCBytes: -1}, "llc_bytes -1 is outside"},
	{"negative delayed tlb", JobSpec{DelayedTLBEntries: -8}, "delayed_tlb_entries -8 is outside"},
	{"negative index cache", JobSpec{IndexCacheBytes: -64}, "index_cache_bytes -64 is outside"},
	{"llc set count", JobSpec{LLCBytes: 12345}, "llc_bytes 12345: cache LLC: set count 12 not a power of two"},
	{"llc below one set", JobSpec{LLCBytes: 512}, "llc_bytes 512: cache LLC: 8 lines not divisible by 16 ways"},
	{"llc below one line", JobSpec{LLCBytes: 63}, "llc_bytes 63: cache LLC: 63 bytes hold no 64-byte line"},
	{"delayed tlb ways", JobSpec{DelayedTLBEntries: 1020}, "delayed_tlb_entries 1020: tlb delayed-tlb: invalid geometry"},
	{"delayed tlb set count", JobSpec{DelayedTLBEntries: 24}, "delayed_tlb_entries 24: tlb delayed-tlb: set count 3 not a power of two"},
	{"index cache below one line", JobSpec{IndexCacheBytes: 32}, "index_cache_bytes 32: cache index-cache: invalid size/ways"},
	{"index cache set count", JobSpec{IndexCacheBytes: 3 << 10}, "index_cache_bytes 3072: cache index-cache: set count 6 not a power of two"},
}

func TestNormalizeRejections(t *testing.T) {
	for _, tc := range rejections {
		spec := tc.spec
		err := spec.Normalize()
		if err == nil {
			t.Errorf("%s: Normalize accepted %+v", tc.name, tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// atLimits are specs that sit exactly at a limit, or at the smallest size
// the simulator can build, and must be accepted.
var atLimits = []struct {
	name string
	spec JobSpec
}{
	{"cores at limit", JobSpec{Cores: MaxCores}},
	{"instructions at limit", JobSpec{Instructions: MaxInstructions}},
	{"llc at limit", JobSpec{LLCBytes: MaxLLCBytes}},
	{"delayed tlb at limit", JobSpec{Org: "hybrid-dtlb", DelayedTLBEntries: MaxDelayedTLBEntries}},
	{"index cache at limit", JobSpec{IndexCacheBytes: MaxIndexCacheBytes}},
	{"one-set llc", JobSpec{LLCBytes: 1 << 10}},
	{"one-set delayed tlb", JobSpec{DelayedTLBEntries: 8}},
	{"one-line index cache", JobSpec{IndexCacheBytes: 64}},
	{"fig9 delayed tlb", JobSpec{Org: "hybrid-dtlb", DelayedTLBEntries: 32768}},
}

func TestNormalizeAcceptsLimits(t *testing.T) {
	for _, tc := range atLimits {
		spec := tc.spec
		if err := spec.Normalize(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// addSpecSeeds seeds f with the JSON of every spec case in this file.
func addSpecSeeds(f *testing.F) {
	seeds := []JobSpec{{}, {Kind: KindSweep, Experiment: "latency"}}
	for _, tc := range rejections {
		seeds = append(seeds, tc.spec)
	}
	for _, tc := range atLimits {
		seeds = append(seeds, tc.spec)
	}
	for _, s := range seeds {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
}

// FuzzJobSpec decodes arbitrary bytes as a job spec. Nothing may panic,
// and a spec Normalize accepts is canonical: normalizing it again changes
// no field, and its cache key is the same both times.
func FuzzJobSpec(f *testing.F) {
	addSpecSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil || spec.Normalize() != nil {
			return
		}
		key := spec.CacheKey()
		again := spec
		again.Workloads = append([]string(nil), spec.Workloads...)
		if err := again.Normalize(); err != nil {
			t.Fatalf("second Normalize of %+v: %v", spec, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("second Normalize changed %+v to %+v", spec, again)
		}
		if k := again.CacheKey(); k != key {
			t.Fatalf("cache key moved from %s to %s", key, k)
		}
	})
}

// submitBodies are raw POST /v1/jobs bodies and the status each must get,
// in order, from one server whose workers are not started. A body must
// hold exactly one spec: trailing data is refused, not dropped.
var submitBodies = []struct {
	name string
	body string
	code int
}{
	{"spec", `{"instructions":1000}`, http.StatusAccepted},
	{"same spec again", `{"instructions":1000}`, http.StatusOK},
	{"spec and white space", "{\"instructions\":1001}\n\t ", http.StatusAccepted},
	{"trailing garbage", `{"instructions":1000}garbage`, http.StatusBadRequest},
	{"second object", `{"instructions":1000}{"org":"rmm"}`, http.StatusBadRequest},
	{"trailing brace", `{"instructions":1000}}`, http.StatusBadRequest},
	{"unknown field", `{"instructions":1000,"speed":9}`, http.StatusBadRequest},
	{"empty body", ``, http.StatusBadRequest},
}

// idleServer builds a server with a small queue whose workers never
// start, so every accepted job stays queued.
func idleServer(tb testing.TB) *Server {
	srv, err := New(Config{QueueDepth: 4, SpoolDir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Drain(context.Background()) })
	return srv
}

// postSpec sends body to POST /v1/jobs through the server's handler.
func postSpec(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	return rec
}

func TestSubmitBodies(t *testing.T) {
	h := idleServer(t).Handler()
	for _, tc := range submitBodies {
		if rec := postSpec(h, []byte(tc.body)); rec.Code != tc.code {
			t.Errorf("%s: %q answered %d (%s), want %d", tc.name, tc.body, rec.Code, rec.Body, tc.code)
		}
	}
}

// FuzzSubmitHandler sends arbitrary bodies through Server.Handler(). Nothing
// may panic and the status is 200, 202, 400 or 429. A body that strict
// decoding (one spec, no unknown fields, nothing after it) or Normalize
// rejects gets 400, and a 2xx answer carries the cache key of the strictly
// decoded, normalized spec.
func FuzzSubmitHandler(f *testing.F) {
	addSpecSeeds(f)
	for _, tc := range submitBodies {
		f.Add([]byte(tc.body))
	}
	h := idleServer(f).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		valid := dec.Decode(&spec) == nil && dec.Decode(&struct{}{}) == io.EOF && spec.Normalize() == nil

		rec := postSpec(h, body)
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted:
			var resp SubmitResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%q: undecodable answer %q: %v", body, rec.Body, err)
			}
			if !valid || resp.Key != spec.CacheKey() {
				t.Fatalf("%q accepted (valid %v) with key %s, want %s", body, valid, resp.Key, spec.CacheKey())
			}
		case http.StatusTooManyRequests:
			if !valid {
				t.Fatalf("%q: invalid body answered 429", body)
			}
		case http.StatusBadRequest:
			if valid {
				t.Fatalf("%q: valid body answered 400: %s", body, rec.Body)
			}
		default:
			t.Fatalf("%q: status %d (%s)", body, rec.Code, rec.Body)
		}
	})
}
