package experiments

import (
	"context"
	"fmt"

	"hybridvc/internal/baseline"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/pipeline"
	"hybridvc/internal/stats"
	"hybridvc/internal/workload"
)

// TableIIIRow is one row of Table III: the maximum live segment count
// under eager allocation, the MPKI of RMM's 32-entry range TLB, and the
// utilization of the eagerly allocated memory.
type TableIIIRow struct {
	Workload    string
	Segments    int
	RMMMPKI     float64
	Utilization float64
}

var tableIIIWorkloads = []string{
	"astar", "mcf", "omnetpp", "cactus", "gemsFDTD", "xalancbmk",
	"canneal", "stream", "mummer", "tigr", "memcached", "npb-cg", "gups",
}

// TableIII reproduces Table III. Segment counts come from the OS model's
// eager allocation; RMM MPKI from replaying the access stream against a
// 32-entry range TLB; utilization from full-run touch accounting. One
// runner cell per workload.
func TableIII(scale Scale, opts RunOptions) ([]TableIIIRow, *stats.Table, error) {
	n := scale.pick(120_000, 2_000_000)
	var cells []Cell
	for _, name := range tableIIIWorkloads {
		name := name
		cells = append(cells, Cell{
			Label: "table3/" + name,
			Fn: func(ctx context.Context) (any, error) {
				k := osmodel.NewKernel(osmodel.Config{PhysBytes: 32 << 30})
				rmm := baseline.NewRMM(baseline.DefaultConfig(1), k)
				gens, err := workload.NewGroup(workload.Specs[name], k, 1)
				if err != nil {
					return nil, fmt.Errorf("table3 %s: %w", name, err)
				}
				if err := driveMem(ctx, rmm, gens, n); err != nil {
					return nil, err
				}
				var insns uint64
				for _, g := range gens {
					insns += g.Emitted()
					g.PrewarmTouch() // model the full run for utilization
				}
				misses := rmm.Counts.Misses(pipeline.TLBRange)
				var util stats.Mean
				for _, g := range gens {
					util.Observe(g.Proc.Utilization())
				}
				return TableIIIRow{
					Workload:    name,
					Segments:    k.MaxSegments(),
					RMMMPKI:     stats.PerKilo(misses, insns),
					Utilization: util.Value(),
				}, nil
			},
		})
	}
	res, err := RunCells(cells, opts)
	if err != nil {
		return nil, nil, err
	}

	var rows []TableIIIRow
	for _, r := range res {
		rows = append(rows, r.Value.(TableIIIRow))
	}
	t := stats.NewTable("Table III: maximum segments in use, RMM (32-range) MPKI, memory utilization",
		"workload", "segments", "RMM MPKI", "usage (%)")
	for _, r := range rows {
		t.AddRow(r.Workload,
			fmt.Sprintf("%d", r.Segments),
			fmt.Sprintf("%.3f", r.RMMMPKI),
			fmt.Sprintf("%.1f", 100*r.Utilization))
	}
	return rows, t, nil
}
