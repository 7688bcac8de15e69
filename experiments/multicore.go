package experiments

import (
	"fmt"
	"strings"

	"hybridvc"
	"hybridvc/internal/stats"
)

// MulticoreMixes are quad-core multiprogrammed combinations, in the style
// of the paper's multi-programmed evaluation (Section VI runs mixes of
// four applications on a quad-core system sharing the LLC and the delayed
// translation hardware).
var MulticoreMixes = [][]string{
	{"gups", "mcf", "omnetpp", "xalancbmk"},
	{"stream", "milc", "soplex", "astar"},
}

// MulticoreResult reports one mix's comparison.
type MulticoreResult struct {
	Mix      string
	Baseline uint64
	Hybrid   uint64
	Speedup  float64
}

// Multicore runs quad-core multiprogrammed mixes on the baseline and the
// hybrid design. The shared LLC and the single shared index cache /
// segment table are the contended resources (the paper notes one index
// cache and segment table serve all cores).
func Multicore(scale Scale, opts RunOptions) ([]MulticoreResult, *stats.Table, error) {
	n := scale.pick(25_000, 500_000)
	orgs := []hybridvc.Organization{hybridvc.Baseline, hybridvc.HybridManySegSC}
	var cells []Cell
	for _, mix := range MulticoreMixes {
		for _, org := range orgs {
			cells = append(cells, Cell{
				Label:        fmt.Sprintf("multicore/%s/%s", strings.Join(mix, "+"), org),
				Config:       hybridvc.Config{Org: org, Cores: 4},
				Workloads:    mix,
				Instructions: n,
			})
		}
	}
	res, err := RunCells(cells, opts)
	if err != nil {
		return nil, nil, err
	}

	var results []MulticoreResult
	for mi, mix := range MulticoreMixes {
		base := res[mi*len(orgs)].Report.Cycles
		hyb := res[mi*len(orgs)+1].Report.Cycles
		results = append(results, MulticoreResult{
			Mix: strings.Join(mix, "+"), Baseline: base, Hybrid: hyb,
			Speedup: float64(base) / float64(hyb),
		})
	}
	t := stats.NewTable("Quad-core multiprogrammed mixes: baseline vs hybrid",
		"mix", "baseline cycles", "hybrid cycles", "speedup")
	for _, r := range results {
		t.AddRow(r.Mix, fmt.Sprintf("%d", r.Baseline), fmt.Sprintf("%d", r.Hybrid),
			fmt.Sprintf("%.3f", r.Speedup))
	}
	return results, t, nil
}
