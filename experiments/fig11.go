package experiments

import (
	"fmt"

	"hybridvc"
	"hybridvc/internal/stats"
)

// Figure11Workloads mixes cache-friendly and memory-intensive workloads
// for the translation-energy comparison.
var Figure11Workloads = []string{"omnetpp", "astar", "xalancbmk", "stream", "mcf", "soplex"}

// Figure11Result reports one workload's translation energy under the
// baseline and the hybrid design, and the relative saving.
type Figure11Result struct {
	Workload   string
	BaselinePJ float64
	HybridPJ   float64
	Saving     float64
}

// Figure11 reproduces the translation-energy claim (~60% reduction): the
// baseline pays a TLB lookup on every reference while the hybrid design
// pays a Bloom-filter probe and touches large structures only after LLC
// misses.
func Figure11(scale Scale, opts RunOptions) ([]Figure11Result, *stats.Table, error) {
	n := scale.pick(60_000, 1_000_000)
	orgs := []hybridvc.Organization{hybridvc.Baseline, hybridvc.HybridManySegSC}
	var cells []Cell
	for _, wl := range Figure11Workloads {
		for _, org := range orgs {
			cells = append(cells, Cell{
				Label:        fmt.Sprintf("fig11/%s/%s", wl, org),
				Config:       hybridvc.Config{Org: org},
				Workloads:    []string{wl},
				Instructions: n,
			})
		}
	}
	res, err := RunCells(cells, opts)
	if err != nil {
		return nil, nil, err
	}

	var results []Figure11Result
	for wi, wl := range Figure11Workloads {
		base := res[wi*len(orgs)].Report.TranslationEnergyPJ
		hyb := res[wi*len(orgs)+1].Report.TranslationEnergyPJ
		results = append(results, Figure11Result{
			Workload:   wl,
			BaselinePJ: base,
			HybridPJ:   hyb,
			Saving:     1 - hyb/base,
		})
	}
	t := stats.NewTable("Translation energy: baseline vs hybrid (Section VI)",
		"workload", "baseline (pJ)", "hybrid (pJ)", "saving")
	var mean stats.Mean
	for _, r := range results {
		t.AddRow(r.Workload,
			fmt.Sprintf("%.0f", r.BaselinePJ),
			fmt.Sprintf("%.0f", r.HybridPJ),
			stats.Percent(r.Saving))
		mean.Observe(r.Saving)
	}
	t.AddRow("mean", "", "", stats.Percent(mean.Value()))
	return results, t, nil
}
