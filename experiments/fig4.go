package experiments

import (
	"context"
	"fmt"

	"hybridvc/internal/core"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/pipeline"
	"hybridvc/internal/stats"
	"hybridvc/internal/workload"
)

// Figure4Sizes are the delayed TLB sizes swept in Figure 4.
var Figure4Sizes = []int{1024, 2048, 4096, 8192, 16384, 32768, 65536}

// Figure4Workloads are the applications of Figure 4.
var Figure4Workloads = []string{"gups", "milc", "mcf", "xalancbmk", "tigr", "omnetpp", "soplex"}

// Figure4Series holds one workload's delayed-TLB MPKI across sizes,
// normalized to the 1K-entry configuration (the paper plots normalized
// MPKI %).
type Figure4Series struct {
	Workload   string
	MPKI       []float64
	Normalized []float64
}

// Figure4 sweeps the delayed TLB size behind a 2 MiB LLC: for big-memory
// workloads (gups, milc, mcf) even a 32K-entry delayed TLB barely reduces
// misses — fixed-granularity delayed translation does not scale. Each
// (workload × size) point is one trace-model cell on the sweep runner.
func Figure4(scale Scale, opts RunOptions) ([]Figure4Series, *stats.Table, error) {
	n := scale.pick(150_000, 2_000_000)
	var cells []Cell
	for _, name := range Figure4Workloads {
		for _, size := range Figure4Sizes {
			name, size := name, size
			cells = append(cells, Cell{
				Label: fmt.Sprintf("fig4/%s/%d", name, size),
				Fn: func(ctx context.Context) (any, error) {
					k := osmodel.NewKernel(osmodel.Config{PhysBytes: 16 << 30})
					cfg := core.DefaultHybridConfig(1)
					cfg.Delayed = core.DelayedPageTLB
					cfg.DelayedTLBEntries = size
					ms := core.NewHybridMMU(cfg, k)
					gens, err := workload.NewGroup(workload.Specs[name], k, 1)
					if err != nil {
						return nil, fmt.Errorf("fig4 %s: %w", name, err)
					}
					if err := driveMem(ctx, ms, gens, n); err != nil {
						return nil, err
					}
					var insns uint64
					for _, g := range gens {
						insns += g.Emitted()
					}
					return stats.PerKilo(ms.Counts.Misses(pipeline.TLBDelayed), insns), nil
				},
			})
		}
	}
	res, err := RunCells(cells, opts)
	if err != nil {
		return nil, nil, err
	}

	var series []Figure4Series
	for wi, name := range Figure4Workloads {
		s := Figure4Series{Workload: name}
		for si := range Figure4Sizes {
			s.MPKI = append(s.MPKI, res[wi*len(Figure4Sizes)+si].Value.(float64))
		}
		base := s.MPKI[0]
		for _, m := range s.MPKI {
			if base > 0 {
				s.Normalized = append(s.Normalized, m/base)
			} else {
				s.Normalized = append(s.Normalized, 0)
			}
		}
		series = append(series, s)
	}
	cols := []string{"workload"}
	for _, size := range Figure4Sizes {
		cols = append(cols, fmt.Sprintf("%dk ent.", size/1024))
	}
	t := stats.NewTable("Figure 4: normalized delayed-TLB miss rate (MPKI, % of 1K-entry)", cols...)
	for _, s := range series {
		row := []string{s.Workload}
		for _, v := range s.Normalized {
			row = append(row, fmt.Sprintf("%.1f%%", 100*v))
		}
		t.AddRow(row...)
	}
	return series, t, nil
}
