// Package service is the simulation-as-a-service layer: a long-running
// HTTP daemon (cmd/hvcd) that accepts simulation and sweep jobs,
// schedules them on a bounded worker pool reusing the experiments sweep
// runner, and serves results from a content-addressed cache so repeated
// submissions of the same configuration — the dominant access pattern of
// design-space exploration — hit memory instead of re-simulating.
//
// The cache key is a canonical SHA-256 over the normalized job spec with
// every workload name replaced by its content digest, so two submissions
// describing the same (organization, workload content, harness
// configuration, seed) collide regardless of field ordering, defaulted
// fields, or workload renames that keep the content identical.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"hybridvc"
	"hybridvc/experiments"
	"hybridvc/internal/cache"
	"hybridvc/internal/workload"
)

// Job kinds.
const (
	// KindSim runs one simulation of a single organization and returns
	// its sim.Report (with a live streaming timeline).
	KindSim = "sim"
	// KindSweep runs a registered experiment (a full table/figure sweep)
	// and returns its rendered tables.
	KindSweep = "sweep"
)

// JobSpec is a submitted job, the body of POST /v1/jobs. Zero fields
// take server defaults (see Normalize); the normalized spec — not the
// submitted one — is what the cache key hashes, so explicit defaults and
// omitted fields address the same cache line.
type JobSpec struct {
	// Kind selects the job type: "sim" (default) or "sweep".
	Kind string `json:"kind,omitempty"`

	// Sim jobs: the hybridvc.Config surface.
	Org               string   `json:"org,omitempty"`
	Workloads         []string `json:"workloads,omitempty"`
	Instructions      uint64   `json:"instructions,omitempty"`
	Cores             int      `json:"cores,omitempty"`
	LLCBytes          int      `json:"llc_bytes,omitempty"`
	DelayedTLBEntries int      `json:"delayed_tlb_entries,omitempty"`
	IndexCacheBytes   int      `json:"index_cache_bytes,omitempty"`
	Seed              int64    `json:"seed,omitempty"`
	// Interval is the timeline window in instructions (sim jobs always
	// collect a timeline so GET /v1/jobs/{id}/timeline can stream it).
	Interval uint64 `json:"interval,omitempty"`

	// Sweep jobs.
	Experiment string `json:"experiment,omitempty"`
	Scale      string `json:"scale,omitempty"` // "quick" (default) or "full"
}

// Normalize fills defaults in place and validates the spec against the
// organization, workload and experiment catalogs. It returns an error
// describing the first problem found; a nil error means the spec is
// runnable and canonical (two specs describing the same job are now
// field-for-field equal).
func (s *JobSpec) Normalize() error {
	if s.Kind == "" {
		s.Kind = KindSim
	}
	switch s.Kind {
	case KindSim:
		return s.normalizeSim()
	case KindSweep:
		return s.normalizeSweep()
	default:
		return fmt.Errorf("unknown job kind %q (want %q or %q)", s.Kind, KindSim, KindSweep)
	}
}

func (s *JobSpec) normalizeSim() error {
	if s.Org == "" {
		s.Org = string(hybridvc.HybridManySegSC)
	}
	if !knownOrg(s.Org) {
		return fmt.Errorf("unknown organization %q", s.Org)
	}
	if len(s.Workloads) == 0 {
		s.Workloads = []string{"gups"}
	}
	for _, name := range s.Workloads {
		if _, err := workload.Get(name); err != nil {
			return err
		}
	}
	if s.Instructions == 0 {
		s.Instructions = 200_000
	}
	if s.Cores <= 0 {
		s.Cores = 1
	}
	if s.Org == string(hybridvc.OVC) && s.Cores != 1 {
		return fmt.Errorf("organization %q is single-core (got cores=%d)", s.Org, s.Cores)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Interval == 0 {
		s.Interval = 10_000
	}
	if err := s.checkLimits(); err != nil {
		return err
	}
	// Sweep-only fields must be absent on a sim job: silently hashing
	// them into the key would split the cache for no behavioural reason.
	if s.Experiment != "" || s.Scale != "" {
		return fmt.Errorf("experiment/scale are sweep-job fields (kind %q)", KindSweep)
	}
	return nil
}

// Limits on a sim job, so one request cannot ask a worker for an
// unbounded hierarchy or run. Each sits well above every catalog and
// experiment value (4 cores, a 2 MiB LLC, a 64K-entry delayed TLB, a
// 64 KiB index cache, 10^6 instructions per core). The core limit is the
// hierarchy's own.
const (
	MaxCores             = cache.MaxCores
	MaxInstructions      = 1_000_000_000 // per core
	MaxLLCBytes          = 1 << 30
	MaxDelayedTLBEntries = 1 << 20
	MaxIndexCacheBytes   = 16 << 20
)

// checkLimits rejects a sim spec past a limit, or with a structure size
// whose geometry the simulator could not build. A zero size takes the
// simulator's default.
func (s *JobSpec) checkLimits() error {
	if s.Cores > MaxCores {
		return fmt.Errorf("cores %d exceeds the limit of %d", s.Cores, MaxCores)
	}
	if s.Instructions > MaxInstructions {
		return fmt.Errorf("instructions %d exceeds the limit of %d", s.Instructions, MaxInstructions)
	}
	for _, f := range []struct {
		name   string
		v, max int
		size   hybridvc.Size
	}{
		{"llc_bytes", s.LLCBytes, MaxLLCBytes, hybridvc.LLCSize},
		{"delayed_tlb_entries", s.DelayedTLBEntries, MaxDelayedTLBEntries, hybridvc.DelayedTLBSize},
		{"index_cache_bytes", s.IndexCacheBytes, MaxIndexCacheBytes, hybridvc.IndexCacheSize},
	} {
		if f.v == 0 {
			continue
		}
		if f.v < 0 || f.v > f.max {
			return fmt.Errorf("%s %d is outside the limit of 1..%d (0 takes the default)", f.name, f.v, f.max)
		}
		if err := hybridvc.CheckSize(f.size, f.v); err != nil {
			return fmt.Errorf("%s %d: %v", f.name, f.v, err)
		}
	}
	return nil
}

func (s *JobSpec) normalizeSweep() error {
	if s.Experiment == "" {
		return fmt.Errorf("sweep job needs an experiment (one of: %s)", experiments.Usage())
	}
	if _, ok := experiments.Lookup(s.Experiment); !ok {
		return fmt.Errorf("unknown experiment %q (want one of: %s)", s.Experiment, experiments.Usage())
	}
	switch s.Scale {
	case "":
		s.Scale = "quick"
	case "quick", "full":
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", s.Scale)
	}
	if s.Org != "" || len(s.Workloads) != 0 || s.Instructions != 0 || s.Cores != 0 ||
		s.LLCBytes != 0 || s.DelayedTLBEntries != 0 || s.IndexCacheBytes != 0 ||
		s.Seed != 0 || s.Interval != 0 {
		return fmt.Errorf("sim-job fields are not meaningful on a sweep job")
	}
	return nil
}

// ExperimentScale maps the spec's scale string to the registry type.
func (s *JobSpec) ExperimentScale() experiments.Scale {
	if s.Scale == "full" {
		return experiments.Full
	}
	return experiments.Quick
}

func knownOrg(name string) bool {
	for _, o := range hybridvc.Organizations() {
		if string(o) == name {
			return true
		}
	}
	return false
}

// keyMaterial is the canonical content hashed into the cache key. It is
// the normalized spec with workload names replaced by content digests,
// plus a schema version so a change to result semantics (what a Report
// means) can invalidate every old key at once.
type keyMaterial struct {
	Schema          int      `json:"schema"`
	Kind            string   `json:"kind"`
	Org             string   `json:"org,omitempty"`
	WorkloadDigests []string `json:"workload_digests,omitempty"`
	Instructions    uint64   `json:"instructions,omitempty"`
	Cores           int      `json:"cores,omitempty"`
	LLCBytes        int      `json:"llc_bytes,omitempty"`
	DelayedTLB      int      `json:"delayed_tlb,omitempty"`
	IndexCache      int      `json:"index_cache,omitempty"`
	Seed            int64    `json:"seed,omitempty"`
	Interval        uint64   `json:"interval,omitempty"`
	Experiment      string   `json:"experiment,omitempty"`
	Scale           string   `json:"scale,omitempty"`
}

// keySchema bumps when the meaning of a cached result changes.
const keySchema = 1

// CacheKey returns the content address of a NORMALIZED spec: a hex
// SHA-256 of the canonical key material. Call Normalize first — hashing
// an unnormalized spec would give defaulted and explicit submissions of
// the same job different keys.
func (s *JobSpec) CacheKey() string {
	m := keyMaterial{
		Schema:       keySchema,
		Kind:         s.Kind,
		Org:          s.Org,
		Instructions: s.Instructions,
		Cores:        s.Cores,
		LLCBytes:     s.LLCBytes,
		DelayedTLB:   s.DelayedTLBEntries,
		IndexCache:   s.IndexCacheBytes,
		Seed:         s.Seed,
		Interval:     s.Interval,
		Experiment:   s.Experiment,
		Scale:        s.Scale,
	}
	for _, name := range s.Workloads {
		// Normalize validated every name; an unknown one here is a bug.
		spec, err := workload.Get(name)
		if err != nil {
			panic(fmt.Sprintf("service: CacheKey on unnormalized spec: %v", err))
		}
		m.WorkloadDigests = append(m.WorkloadDigests, spec.Digest())
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("service: key marshal: %v", err)) // unreachable
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
