// Tests in this file validate the *shape* of every reproduced experiment
// against the paper's qualitative claims at Quick scale: who wins, roughly
// by how much, and where the crossovers fall.
package experiments

import (
	"strings"
	"testing"
)

// skipIfRace skips the heavy simulation shape tests under the race
// detector: they validate numerics on sizeable instruction windows (10x+
// slower with -race), while the runner's concurrency is covered by the
// dedicated tests in runner_test.go.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("heavy shape test skipped under -race")
	}
}

func TestTableIShape(t *testing.T) {
	skipIfRace(t)
	rows, table, err := TableI(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]TableIRow{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	// postgres dominates sharing: ~66% area, ~16% access.
	pg := byName["postgres"]
	if pg.SharedArea < 0.4 || pg.SharedArea > 0.85 {
		t.Errorf("postgres shared area = %.2f, want ~0.66", pg.SharedArea)
	}
	if pg.SharedAccess < 0.1 || pg.SharedAccess > 0.25 {
		t.Errorf("postgres shared access = %.2f, want ~0.16", pg.SharedAccess)
	}
	// Every other workload shares little; SPEC/PARSEC share nothing.
	for _, name := range []string{"ferret", "SpecJBB", "firefox", "apache"} {
		if r := byName[name]; r.SharedArea > 0.1 || r.SharedAccess > 0.02 {
			t.Errorf("%s sharing too high: %+v", name, r)
		}
	}
	for _, name := range []string{"SPECCPU", "Remaining Parsec"} {
		if r := byName[name]; r.SharedArea != 0 || r.SharedAccess != 0 {
			t.Errorf("%s shows sharing: %+v", name, r)
		}
	}
	if !strings.Contains(table.String(), "postgres") {
		t.Error("table missing rows")
	}
}

func TestTableIIShape(t *testing.T) {
	skipIfRace(t)
	rows, _, err := TableII(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TableIIRow{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	for _, r := range rows {
		// False positives stay below 0.5% of accesses (paper: <0.5%).
		if r.FalsePositiveRate > 0.005 {
			t.Errorf("%s: false positive rate %.4f > 0.5%%", r.Workload, r.FalsePositiveRate)
		}
	}
	// Non-postgres workloads bypass ~99% of TLB accesses.
	for _, name := range []string{"ferret", "specjbb", "firefox", "apache"} {
		if r := byName[name]; r.AccessReduction < 0.97 {
			t.Errorf("%s: access reduction %.3f, want >= 0.97", name, r.AccessReduction)
		}
	}
	// postgres still bypasses a large majority (paper: 83.7%).
	if r := byName["postgres"]; r.AccessReduction < 0.7 || r.AccessReduction > 0.95 {
		t.Errorf("postgres access reduction %.3f, want ~0.84", r.AccessReduction)
	}
	// Miss reduction is positive for the low-sharing workloads (the LLC
	// filters translation requests); postgres may go negative (-6.1% in
	// the paper) because of its small synonym TLB.
	for _, name := range []string{"firefox", "apache", "specjbb"} {
		if r := byName[name]; r.MissReduction <= 0 {
			t.Errorf("%s: miss reduction %.3f, want > 0", name, r.MissReduction)
		}
	}
	if r := byName["postgres"]; r.MissReduction > byName["apache"].MissReduction {
		t.Error("postgres should benefit least from the proposed TLBs")
	}
}

func TestTableIIIShape(t *testing.T) {
	skipIfRace(t)
	rows, _, err := TableIII(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TableIIIRow{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	// Segment counts: the big three exceed 32 ranges; stream/gups do not.
	for _, name := range []string{"tigr", "xalancbmk", "memcached"} {
		if byName[name].Segments <= 32 {
			t.Errorf("%s: %d segments, want > 32", name, byName[name].Segments)
		}
	}
	for _, name := range []string{"stream", "gups"} {
		if byName[name].Segments > 32 {
			t.Errorf("%s: %d segments, want <= 32", name, byName[name].Segments)
		}
	}
	// RMM MPKI: considerable for the many-segment workloads, ~0 for few.
	for _, name := range []string{"tigr", "xalancbmk", "memcached"} {
		if byName[name].RMMMPKI < 0.5 {
			t.Errorf("%s: RMM MPKI %.3f, want considerable", name, byName[name].RMMMPKI)
		}
	}
	if byName["gups"].RMMMPKI > 0.1 {
		t.Errorf("gups RMM MPKI %.3f, want ~0", byName["gups"].RMMMPKI)
	}
	// Utilization: gemsFDTD and memcached leave much allocated memory
	// untouched; stream uses nearly everything.
	if byName["gemsFDTD"].Utilization > 0.5 || byName["memcached"].Utilization > 0.6 {
		t.Error("low-utilization workloads report high usage")
	}
	if byName["stream"].Utilization < 0.9 {
		t.Errorf("stream utilization %.2f, want ~1", byName["stream"].Utilization)
	}
}

func TestFigure4Shape(t *testing.T) {
	skipIfRace(t)
	series, _, err := Figure4(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Figure4Series{}
	for _, s := range series {
		byName[s.Workload] = s
	}
	last := len(Figure4Sizes) - 1
	// gups/milc/mcf: even 32K..64K entries leave most misses (paper:
	// "the increase in TLB size does not reduce the number of misses").
	for _, name := range []string{"gups", "milc", "mcf"} {
		s := byName[name]
		if s.Normalized[last] < 0.5 {
			t.Errorf("%s: 64K-entry delayed TLB removed %.0f%% of misses; should not scale",
				name, 100*(1-s.Normalized[last]))
		}
		if s.MPKI[0] < 1 {
			t.Errorf("%s: baseline MPKI %.2f too low to matter", name, s.MPKI[0])
		}
	}
	// Locality workloads benefit substantially from bigger delayed TLBs.
	for _, name := range []string{"omnetpp", "xalancbmk"} {
		s := byName[name]
		if s.Normalized[last] > 0.6 {
			t.Errorf("%s: normalized MPKI %.2f at 64K, want large reduction",
				name, s.Normalized[last])
		}
	}
	// MPKI must be non-increasing in TLB size (sanity).
	for _, s := range series {
		for i := 1; i < len(s.MPKI); i++ {
			if s.MPKI[i] > s.MPKI[i-1]*1.05 {
				t.Errorf("%s: MPKI grew with TLB size: %v", s.Workload, s.MPKI)
			}
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	skipIfRace(t)
	a, _, err := Figure7a(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range a {
		// Hit rate must grow (weakly) with size and reach ~90%+ by 8 KiB
		// for real workloads (paper: "does not suffer misses even with a
		// modestly sized index cache of 8KB").
		idx8k := -1
		for i, size := range s.Sizes {
			if size == 8<<10 {
				idx8k = i
			}
		}
		if s.HitRates[idx8k] < 0.85 {
			t.Errorf("%s: 8KB index cache hit rate %.2f, want >= 0.85", s.Label, s.HitRates[idx8k])
		}
		if s.HitRates[len(s.Sizes)-1] < s.HitRates[0] {
			t.Errorf("%s: hit rate decreased with size", s.Label)
		}
	}

	b, _, err := Figure7b(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 3 {
		t.Fatalf("series = %d", len(b))
	}
	last := len(Figure7Sizes) - 1
	idx32k := last - 1 // 32KB precedes 64KB
	// Worst case: 32KB nearly eliminates misses for 1024 segments and
	// keeps the 2048-segment rate high (the paper reports 75.5%; our
	// bulk-built tree packs nodes fully, so it is smaller than the
	// paper's incrementally maintained tree and fits even better).
	if b[0].HitRates[idx32k] < 0.9 {
		t.Errorf("1024-segment worst case: 32KB hit rate %.2f, want >= 0.9", b[0].HitRates[idx32k])
	}
	if b[1].HitRates[idx32k] < 0.6 {
		t.Errorf("2048-segment worst case: 32KB hit rate %.2f, want >= 0.6", b[1].HitRates[idx32k])
	}
	// At 2KB the worst case must be visibly degraded for 2048 segments.
	idx2k := -1
	for i, size := range Figure7Sizes {
		if size == 2<<10 {
			idx2k = i
		}
	}
	if b[1].HitRates[idx2k] > 0.85 {
		t.Errorf("2048-segment worst case: 2KB hit rate %.2f implausibly high", b[1].HitRates[idx2k])
	}
	// The 2048-segment curve is everywhere at or below the 1024 curve.
	for i := range Figure7Sizes {
		if b[1].HitRates[i] > b[0].HitRates[i]+0.02 {
			t.Errorf("2048-segment hit rate above 1024 at size %d", Figure7Sizes[i])
		}
	}
	// Tiny caches are useless against random traffic.
	if b[1].HitRates[0] > 0.3 {
		t.Errorf("64B worst-case hit rate %.2f implausibly high", b[1].HitRates[0])
	}
	// The incrementally built tree is larger (partial fill factor), so
	// its curve sits at or below the packed tree's everywhere and stays
	// below 100% at 32 KiB — approaching the paper's 75.5% figure.
	inc := b[2]
	for i := range Figure7Sizes {
		if inc.HitRates[i] > b[1].HitRates[i]+0.02 {
			t.Errorf("incremental tree beats packed tree at %dB", Figure7Sizes[i])
		}
	}
	if inc.HitRates[idx32k] >= 0.999 {
		t.Errorf("incremental tree fully cached at 32KB (%.3f); fill factor not modelled",
			inc.HitRates[idx32k])
	}
}

func TestFigure9Shape(t *testing.T) {
	skipIfRace(t)
	results, _, err := Figure9(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := Figure9Configs()
	idx := map[string]int{}
	for i, c := range cfgs {
		idx[c.Label] = i
	}
	for _, r := range results {
		get := func(label string) float64 { return r.Speedup[idx[label]] }
		// Ideal is the upper bound.
		for _, c := range cfgs {
			if get(c.Label) > get("ideal")*1.02 {
				t.Errorf("%s: %s (%.3f) beats ideal (%.3f)", r.Workload, c.Label,
					get(c.Label), get("ideal"))
			}
		}
		// Many-segment + SC beats the baseline (the paper's headline).
		if get("many-segment+sc") < 1.0 {
			t.Errorf("%s: many-segment+sc slower than baseline (%.3f)",
				r.Workload, get("many-segment+sc"))
		}
		// The SC never hurts.
		if get("many-segment+sc") < get("many-segment")*0.98 {
			t.Errorf("%s: SC slowed many-segment down: %.3f vs %.3f",
				r.Workload, get("many-segment+sc"), get("many-segment"))
		}
	}
	// gups (page working set >> any delayed TLB): many-segment clearly
	// beats the 1K delayed TLB.
	for _, r := range results {
		if r.Workload != "gups" {
			continue
		}
		if r.Speedup[idx["many-segment+sc"]] <= r.Speedup[idx["delayed-tlb-1k"]] {
			t.Errorf("gups: many-segment (%.3f) not above delayed-tlb-1k (%.3f)",
				r.Speedup[idx["many-segment+sc"]], r.Speedup[idx["delayed-tlb-1k"]])
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	skipIfRace(t)
	results, _, err := Figure10(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		// The virtualized hybrid must beat the 2D-walk baseline on every
		// memory-intensive workload (paper: +31.7% on average).
		if r.Speedup <= 1.0 {
			t.Errorf("%s: virt speedup %.3f, want > 1", r.Workload, r.Speedup)
		}
	}
	// At least one workload shows a large (>15%) gain.
	max := 0.0
	for _, r := range results {
		if r.Speedup > max {
			max = r.Speedup
		}
	}
	if max < 1.15 {
		t.Errorf("largest virtualized speedup only %.3f", max)
	}
}

func TestFigure11Shape(t *testing.T) {
	skipIfRace(t)
	results, _, err := Figure11(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range results {
		if r.Saving <= 0 {
			t.Errorf("%s: hybrid increased translation energy (%.0f vs %.0f pJ)",
				r.Workload, r.HybridPJ, r.BaselinePJ)
		}
		sum += r.Saving
	}
	// Mean saving should approach the paper's ~60%.
	mean := sum / float64(len(results))
	if mean < 0.45 {
		t.Errorf("mean translation energy saving %.0f%%, want >= 45%%", 100*mean)
	}
}

func TestAblationsRun(t *testing.T) {
	skipIfRace(t)
	a1, err := AblationFilterDesign(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a1.NumRows() != 4 {
		t.Errorf("A1 rows = %d", a1.NumRows())
	}
	a2, err := AblationSegmentCache(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a2.NumRows() != 2 {
		t.Errorf("A2 rows = %d", a2.NumRows())
	}
	a3, err := AblationHugePages(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a3.NumRows() != 2 {
		t.Errorf("A3 rows = %d", a3.NumRows())
	}
	lat, err := SegmentWalkLatency(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lat.String(), "walk") {
		t.Error("latency table malformed")
	}
}

func TestMulticoreShape(t *testing.T) {
	skipIfRace(t)
	results, _, err := Multicore(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(MulticoreMixes) {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Speedup <= 1.0 {
			t.Errorf("%s: quad-core hybrid speedup %.3f, want > 1", r.Mix, r.Speedup)
		}
	}
}

func TestScalePick(t *testing.T) {
	if Quick.pick(1, 2) != 1 || Full.pick(1, 2) != 2 {
		t.Error("Scale.pick wrong")
	}
}

func TestAblationSerialParallel(t *testing.T) {
	skipIfRace(t)
	a4, err := AblationSerialParallel(Quick, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a4.NumRows() != 4 {
		t.Errorf("A4 rows = %d", a4.NumRows())
	}
	out := a4.String()
	if !strings.Contains(out, "serial (paper)") || !strings.Contains(out, "parallel") {
		t.Errorf("A4 table malformed:\n%s", out)
	}
}
