package experiments

import (
	"fmt"

	"hybridvc"
	"hybridvc/internal/sim"
	"hybridvc/internal/stats"
	"hybridvc/internal/workload"
)

// parityWorkloads are the fixed workload prefixes the parity fingerprint
// runs: one miss-heavy single-process stream and one multi-process mix
// with shared (synonym) memory, so both the delayed-translation path and
// the synonym path contribute to every organization's row.
var parityWorkloads = []string{"gups", "postgres"}

// parityCoherenceSpec is the postgres mix with a 64 KiB shared region
// that 30% of accesses target, run inline so the catalog does not change.
// Four cores then contend for the same few lines: each cell sees
// thousands of coherence downgrades where the catalog postgres sees a
// handful, so a change to the snoop path moves its rows.
func parityCoherenceSpec() workload.Spec {
	s := workload.Specs["postgres"]
	s.Name = "postgres-coh"
	s.SharedBytes = 64 << 10
	s.SharedAccessFrac = 0.3
	return s
}

// Parity runs every selectable organization on the fixed workload
// prefixes and renders a per-cell stat fingerprint: report fields, the
// hierarchy and fault counters, and the TLB lookups and hits of the
// pipeline counts summed over every TLB level. The table is intentionally
// exhaustive and byte-stable — the golden test in parity_test.go diffs it
// against a checked-in rendering to prove that refactors of the access
// path leave every organization's simulated behavior bit-identical.
func Parity(s Scale, opts RunOptions) (*stats.Table, error) {
	insns := s.pick(30_000, 200_000)
	simCfg := sim.DefaultConfig()
	// A timeslice shorter than the window makes the multi-process cells
	// exercise context switching (and the filter-reload accounting).
	simCfg.Timeslice = 10_000

	var cells []Cell
	add := func(org hybridvc.Organization, spec workload.Spec, cores int) {
		cells = append(cells, Cell{
			Label:        fmt.Sprintf("parity/%s/%dc/%s", spec.Name, cores, org),
			Config:       hybridvc.Config{Org: org, Cores: cores, Sim: simCfg},
			Specs:        []workload.Spec{spec},
			Instructions: insns,
			Extract:      parityRow(string(org), spec.Name, cores),
		})
	}
	for _, org := range hybridvc.Organizations() {
		for _, wl := range parityWorkloads {
			add(org, workload.Specs[wl], 1)
		}
		// The synonym mix again on four cores, one process each, runs
		// cross-core snoops and back-invalidations, which no single-core
		// row reaches; the coherence-heavy mix makes those snoops find
		// lines. The OVC model is single-core.
		if org != hybridvc.OVC {
			add(org, workload.Specs["postgres"], 4)
			add(org, parityCoherenceSpec(), 4)
		}
	}
	results, err := RunCells(cells, opts)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Parity: per-organization stat fingerprint",
		"org", "workload", "cores", "cycles", "insns", "ipc", "xlat_pj", "dyn_pj",
		"llc_hits", "llc_misses", "mem_wbs", "back_invals", "coh_invals", "coh_downgrades",
		"faults", "walk_steps", "payload_evictions", "tlb_lookups", "tlb_hits")
	for _, r := range results {
		t.AddRow(r.Value.([]string)...)
	}
	return t, nil
}

// parityRow extracts one cell's fingerprint while the system is alive.
func parityRow(org, wl string, cores int) func(*hybridvc.System, sim.Report) (any, error) {
	return func(sys *hybridvc.System, rep sim.Report) (any, error) {
		h := sys.Mem.Hierarchy()
		b := sys.Mem.BaseState()
		var lookups, hits uint64
		for l := range b.Counts.TLBLookups {
			lookups += b.Counts.TLBLookups[l]
			hits += b.Counts.TLBHits[l]
		}
		return []string{
			org, wl,
			fmt.Sprintf("%d", cores),
			fmt.Sprintf("%d", rep.Cycles),
			fmt.Sprintf("%d", rep.Instructions),
			fmt.Sprintf("%.6f", rep.IPC),
			fmt.Sprintf("%.3f", rep.TranslationEnergyPJ),
			fmt.Sprintf("%.3f", rep.DynamicEnergyPJ),
			fmt.Sprintf("%d", h.LLC().Stats.Hits.Value()),
			fmt.Sprintf("%d", h.LLC().Stats.Misses.Value()),
			fmt.Sprintf("%d", h.MemWritebacks.Value()),
			fmt.Sprintf("%d", h.BackInvals.Value()),
			fmt.Sprintf("%d", h.CoherenceInvals.Value()),
			fmt.Sprintf("%d", h.CoherenceDowngrades.Value()),
			fmt.Sprintf("%d", b.Faults.Value()),
			fmt.Sprintf("%d", b.WalkSteps.Value()),
			fmt.Sprintf("%d", h.PayloadEvictions.Value()),
			fmt.Sprintf("%d", lookups),
			fmt.Sprintf("%d", hits),
		}, nil
	}
}
