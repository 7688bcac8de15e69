package experiments

import (
	"fmt"

	"hybridvc"
	"hybridvc/internal/baseline"
	"hybridvc/internal/core"
	"hybridvc/internal/pipeline"
	"hybridvc/internal/sim"
	"hybridvc/internal/stats"
)

// xarchOrgs are the translation architectures the comparison lab runs:
// the conventional TLB baseline, the paper's hybrid design (Bloom filter +
// many-segment delayed translation), and the two typed-payload designs —
// Victima-style cached translation blocks and the exact reverse-lookup
// table — which both steal LLC capacity from data instead of adding
// dedicated translation storage.
var xarchOrgs = []hybridvc.Organization{
	hybridvc.Baseline, hybridvc.HybridManySegSC, hybridvc.Victima, hybridvc.RLTVC,
}

// XArch compares the translation architectures head to head on the parity
// workloads: performance and translation energy alongside each design's
// mechanism counters — front-end walks avoided, metadata blocks served
// from the data caches, blocks installed and evicted (the capacity
// competition), and synonym-filter false positives (zero by construction
// for the exact reverse-lookup table, the fig4/table2-style comparison
// point against the Bloom filter).
func XArch(s Scale, opts RunOptions) (*stats.Table, error) {
	insns := s.pick(30_000, 200_000)
	simCfg := sim.DefaultConfig()
	simCfg.Timeslice = 10_000

	var cells []Cell
	for _, org := range xarchOrgs {
		for _, wl := range parityWorkloads {
			cells = append(cells, Cell{
				Label:        fmt.Sprintf("xarch/%s/%s", wl, org),
				Config:       hybridvc.Config{Org: org, Cores: 1, Sim: simCfg},
				Workloads:    []string{wl},
				Instructions: insns,
				Extract:      xarchRow(string(org), wl),
			})
		}
	}
	results, err := RunCells(cells, opts)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Translation architectures: cached translation blocks and reverse-lookup records vs TLB and Bloom filter",
		"org", "workload", "cycles", "insns", "ipc", "xlat_pj",
		"walks", "cached_hits", "fills", "evictions", "filter_fps")
	for _, r := range results {
		t.AddRow(r.Value.([]string)...)
	}
	return t, nil
}

// xarchRow extracts one cell's mechanism counters while the system is
// alive. Columns without a counterpart in an organization render "-".
// Walks and cached hits come from the pipeline counts: the baseline walks
// on an L2 TLB miss, and Victima and rlt-vc on a metadata-block miss.
func xarchRow(org, wl string) func(*hybridvc.System, sim.Report) (any, error) {
	return func(sys *hybridvc.System, rep sim.Report) (any, error) {
		c := &sys.Mem.BaseState().Counts
		walks, cached, fills, evictions, fps := "-", "-", "-", "-", "-"
		switch m := sys.Mem.(type) {
		case *baseline.Conventional:
			walks = fmt.Sprintf("%d", c.Misses(pipeline.TLBL2))
		case *baseline.Victima:
			walks = fmt.Sprintf("%d", c.Misses(pipeline.TLBXlatCache))
			cached = fmt.Sprintf("%d", c.TLBHits[pipeline.TLBXlatCache])
			fills = fmt.Sprintf("%d", m.XlatFills.Value())
			evictions = fmt.Sprintf("%d", sys.Mem.Hierarchy().PayloadEvictions.Value())
		case *core.RLTVC:
			walks = fmt.Sprintf("%d", c.Misses(pipeline.TLBXlatCache))
			cached = fmt.Sprintf("%d", c.TLBHits[pipeline.TLBXlatCache])
			fills = fmt.Sprintf("%d", m.RecordFills.Value())
			evictions = fmt.Sprintf("%d", sys.Mem.Hierarchy().PayloadEvictions.Value())
			fps = fmt.Sprintf("%d", c.FalsePositives)
		case *core.HybridMMU:
			fps = fmt.Sprintf("%d", c.FalsePositives)
		}
		return []string{
			org, wl,
			fmt.Sprintf("%d", rep.Cycles),
			fmt.Sprintf("%d", rep.Instructions),
			fmt.Sprintf("%.6f", rep.IPC),
			fmt.Sprintf("%.3f", rep.TranslationEnergyPJ),
			walks, cached, fills, evictions, fps,
		}, nil
	}
}
