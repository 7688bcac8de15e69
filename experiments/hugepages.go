package experiments

import (
	"fmt"

	"hybridvc"
	"hybridvc/internal/stats"
	"hybridvc/internal/workload"
)

// AblationHugePages (A3) pits the conventional mitigation for TLB reach —
// transparent 2 MiB huge pages — against delayed many-segment translation.
// Huge pages multiply TLB reach 512x but still cap it (32 entries x 2 MiB
// = 64 MiB here), while segments cover arbitrarily large contiguous
// regions; the paper's Section IV argument in one table.
func AblationHugePages(scale Scale, opts RunOptions) (*stats.Table, error) {
	n := scale.pick(40_000, 500_000)
	workloads := []string{"gups", "mcf"}
	points := []struct {
		label string
		org   hybridvc.Organization
		huge  bool
	}{
		{"baseline 4K", hybridvc.Baseline, false},
		{"baseline 2M (THP)", hybridvc.Baseline, true},
		{"hybrid many-seg+SC", hybridvc.HybridManySegSC, false},
	}
	var cells []Cell
	for _, wl := range workloads {
		spec := workload.Specs[wl]
		for _, p := range points {
			s := spec
			s.HugePages = p.huge
			cells = append(cells, Cell{
				Label:        fmt.Sprintf("hugepages/%s/%s", wl, p.label),
				Config:       hybridvc.Config{Org: p.org},
				Specs:        []workload.Spec{s},
				Instructions: n,
			})
		}
	}
	res, err := RunCells(cells, opts)
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("Ablation A3: huge pages vs many-segment delayed translation",
		"workload", "baseline 4K", "baseline 2M (THP)", "hybrid many-seg+SC")
	for wi, wl := range workloads {
		base4k := res[wi*len(points)].Report.Cycles
		base2m := res[wi*len(points)+1].Report.Cycles
		hybrid := res[wi*len(points)+2].Report.Cycles
		t.AddRow(wl,
			fmt.Sprintf("%d (1.00x)", base4k),
			fmt.Sprintf("%d (%.2fx)", base2m, float64(base4k)/float64(base2m)),
			fmt.Sprintf("%d (%.2fx)", hybrid, float64(base4k)/float64(hybrid)))
	}
	return t, nil
}
