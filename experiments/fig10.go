package experiments

import (
	"fmt"

	"hybridvc"
	"hybridvc/internal/stats"
)

// Figure10Workloads are the workloads run under virtualization.
var Figure10Workloads = []string{"gups", "mcf", "omnetpp", "xalancbmk"}

// Figure10Result holds one workload's virtualized comparison: the 2D-walk
// baseline (with a nested-TLB translation cache) versus the virtualized
// hybrid design.
type Figure10Result struct {
	Workload      string
	BaselineCycle uint64
	HybridCycle   uint64
	Speedup       float64
}

// Figure10 reproduces the virtualized performance comparison of Section
// VI: the hybrid design hides the two-dimensional translation cost behind
// the LLC (the paper reports +31.7% on memory-intensive workloads).
func Figure10(scale Scale, opts RunOptions) ([]Figure10Result, *stats.Table, error) {
	n := scale.pick(40_000, 1_000_000)
	orgs := []hybridvc.Organization{hybridvc.Virt2D, hybridvc.VirtHybrid}
	var cells []Cell
	for _, wl := range Figure10Workloads {
		for _, org := range orgs {
			cells = append(cells, Cell{
				Label: fmt.Sprintf("fig10/%s/%s", wl, org),
				Config: hybridvc.Config{
					Org:        org,
					PhysBytes:  32 << 30,
					GuestBytes: 8 << 30,
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

	var results []Figure10Result
	for wi, wl := range Figure10Workloads {
		base := res[wi*len(orgs)].Report.Cycles
		hyb := res[wi*len(orgs)+1].Report.Cycles
		results = append(results, Figure10Result{
			Workload:      wl,
			BaselineCycle: base,
			HybridCycle:   hyb,
			Speedup:       float64(base) / float64(hyb),
		})
	}
	t := stats.NewTable("Virtualized performance: 2D-walk baseline vs hybrid (Section VI)",
		"workload", "2D baseline cycles", "virt-hybrid cycles", "speedup")
	for _, r := range results {
		t.AddRow(r.Workload,
			fmt.Sprintf("%d", r.BaselineCycle),
			fmt.Sprintf("%d", r.HybridCycle),
			fmt.Sprintf("%.3f", r.Speedup))
	}
	return results, t, nil
}
