package experiments

import (
	"fmt"
	"math"

	"hybridvc"
	"hybridvc/internal/stats"
)

// Figure9Workloads are the memory-intensive native workloads evaluated.
var Figure9Workloads = []string{"gups", "mcf", "milc", "xalancbmk", "omnetpp", "tigr", "stream", "graph500"}

// Figure9Config is one evaluated design point of Figure 9.
type Figure9Config struct {
	Label string
	Org   hybridvc.Organization
	// DelayedTLBEntries applies to delayed-TLB configurations.
	DelayedTLBEntries int
}

// Figure9Configs lists the paper's native design points: the baseline,
// fixed-granularity delayed TLBs of growing size, many-segment delayed
// translation without and with the segment cache, and the ideal TLB.
func Figure9Configs() []Figure9Config {
	return []Figure9Config{
		{Label: "baseline", Org: hybridvc.Baseline},
		{Label: "delayed-tlb-1k", Org: hybridvc.HybridDelayedTLB, DelayedTLBEntries: 1024},
		{Label: "delayed-tlb-8k", Org: hybridvc.HybridDelayedTLB, DelayedTLBEntries: 8192},
		{Label: "delayed-tlb-32k", Org: hybridvc.HybridDelayedTLB, DelayedTLBEntries: 32768},
		{Label: "many-segment", Org: hybridvc.HybridManySeg},
		{Label: "many-segment+sc", Org: hybridvc.HybridManySegSC},
		{Label: "ideal", Org: hybridvc.Ideal},
	}
}

// Figure9Result holds one workload's speedups over the baseline.
type Figure9Result struct {
	Workload string
	// Cycles per configuration, Speedup normalized to the baseline.
	Cycles  []uint64
	Speedup []float64
}

// Figure9 runs the full native performance comparison with the timing
// cores and reports speedup over the physically addressed baseline. The
// (workload × configuration) grid runs as independent cells on the
// parallel sweep runner.
func Figure9(scale Scale, opts RunOptions) ([]Figure9Result, *stats.Table, error) {
	n := scale.pick(40_000, 1_000_000)
	workloads := Figure9Workloads
	if scale == Quick {
		workloads = workloads[:4]
	}
	cfgs := Figure9Configs()

	var cells []Cell
	for _, wl := range workloads {
		for _, c := range cfgs {
			cells = append(cells, Cell{
				Label: fmt.Sprintf("fig9/%s/%s", wl, c.Label),
				Config: hybridvc.Config{
					Org:               c.Org,
					DelayedTLBEntries: c.DelayedTLBEntries,
				},
				Workloads:    []string{wl},
				Instructions: n,
			})
		}
	}
	res, err := RunCells(cells, opts)
	if err != nil {
		return nil, nil, err
	}

	var results []Figure9Result
	for wi, wl := range workloads {
		r := Figure9Result{Workload: wl}
		for ci := range cfgs {
			r.Cycles = append(r.Cycles, res[wi*len(cfgs)+ci].Report.Cycles)
		}
		base := float64(r.Cycles[0])
		for _, cy := range r.Cycles {
			r.Speedup = append(r.Speedup, base/float64(cy))
		}
		results = append(results, r)
	}
	cols := []string{"workload"}
	for _, c := range cfgs {
		cols = append(cols, c.Label)
	}
	t := stats.NewTable("Figure 9: native performance (speedup over baseline)", cols...)
	for _, r := range results {
		row := []string{r.Workload}
		for _, s := range r.Speedup {
			row = append(row, fmt.Sprintf("%.3f", s))
		}
		t.AddRow(row...)
	}
	// Geometric-mean row.
	gm := make([]float64, len(cfgs))
	for i := range gm {
		prod := 1.0
		for _, r := range results {
			prod *= r.Speedup[i]
		}
		gm[i] = math.Pow(prod, 1/float64(len(results)))
	}
	row := []string{"geomean"}
	for _, g := range gm {
		row = append(row, fmt.Sprintf("%.3f", g))
	}
	t.AddRow(row...)
	return results, t, nil
}
