package experiments

import (
	"context"
	"fmt"

	"hybridvc/internal/core"
	"hybridvc/internal/cpu"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/sim"
	"hybridvc/internal/stats"
	"hybridvc/internal/workload"
)

// a4Result carries one serial/parallel cell's measurements.
type a4Result struct {
	cycles    uint64
	delayed   uint64
	dynamicPJ float64
}

// AblationSerialParallel (A4) quantifies Section IV-C's design choice:
// delayed translation can run in parallel with the LLC access (hiding its
// latency) or serially after the miss (saving the energy of translations
// that an LLC hit would have made unnecessary). The paper chooses serial;
// this table shows the latency/energy trade both ways.
func AblationSerialParallel(scale Scale, opts RunOptions) (*stats.Table, error) {
	n := scale.pick(40_000, 500_000)
	workloads := []string{"omnetpp", "gups"}
	modes := []bool{false, true}
	var cells []Cell
	for _, wl := range workloads {
		for _, parallel := range modes {
			wl, parallel := wl, parallel
			mode := "serial"
			if parallel {
				mode = "parallel"
			}
			cells = append(cells, Cell{
				Label: fmt.Sprintf("ablation-a4/%s/%s", wl, mode),
				Fn: func(ctx context.Context) (any, error) {
					k := osmodel.NewKernel(osmodel.Config{PhysBytes: 16 << 30})
					cfg := core.DefaultHybridConfig(1)
					cfg.ParallelDelayed = parallel
					ms := core.NewHybridMMU(cfg, k)
					gens, err := workload.NewGroup(workload.Specs[wl], k, 1)
					if err != nil {
						return nil, fmt.Errorf("a4 %s: %w", wl, err)
					}
					s := sim.New(sim.Config{CPU: cpu.DefaultConfig(), FetchEvery: 8, Timeslice: 50_000, Interleave: 128}, ms, gens)
					rep, err := s.RunContext(ctx, n)
					if err != nil {
						return nil, err
					}
					return a4Result{
						cycles:    rep.Cycles,
						delayed:   ms.Counts.DelayedDemand,
						dynamicPJ: rep.DynamicEnergyPJ,
					}, nil
				},
			})
		}
	}
	res, err := RunCells(cells, opts)
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("Ablation A4: serial vs parallel delayed translation",
		"workload", "mode", "cycles", "delayed xlations", "dynamic energy (pJ)")
	for wi, wl := range workloads {
		for mi, parallel := range modes {
			r := res[wi*len(modes)+mi].Value.(a4Result)
			mode := "serial (paper)"
			if parallel {
				mode = "parallel"
			}
			t.AddRow(wl, mode,
				fmt.Sprintf("%d", r.cycles),
				fmt.Sprintf("%d", r.delayed),
				fmt.Sprintf("%.0f", r.dynamicPJ))
		}
	}
	return t, nil
}
