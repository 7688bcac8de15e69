package experiments

import (
	"context"
	"fmt"

	"hybridvc/internal/osmodel"
	"hybridvc/internal/stats"
	"hybridvc/internal/workload"
)

// TableIRow is one row of Table I: the fraction of mapped pages that are
// r/w shared, and the fraction of memory accesses that touch them.
type TableIRow struct {
	Workload     string
	SharedArea   float64
	SharedAccess float64
}

// tableIWorkloads: the five synonym workloads plus the two no-sharing
// aggregate rows the paper reports.
var tableIWorkloads = []struct {
	row  string
	spec string
}{
	{"ferret", "ferret"},
	{"postgres", "postgres"},
	{"SpecJBB", "specjbb"},
	{"firefox", "firefox"},
	{"apache", "apache"},
	{"SPECCPU", "mcf"},             // representative: no r/w sharing
	{"Remaining Parsec", "stream"}, // representative: no r/w sharing
}

// TableI reproduces Table I by instantiating each workload's processes
// and sampling its access stream; one runner cell per workload.
func TableI(scale Scale, opts RunOptions) ([]TableIRow, *stats.Table, error) {
	n := scale.pick(100_000, 2_000_000)
	var cells []Cell
	for _, w := range tableIWorkloads {
		w := w
		cells = append(cells, Cell{
			Label: "table1/" + w.row,
			Fn: func(context.Context) (any, error) {
				k := osmodel.NewKernel(osmodel.Config{PhysBytes: 16 << 30})
				gens, err := workload.NewGroup(workload.Specs[w.spec], k, 1)
				if err != nil {
					return nil, fmt.Errorf("table1 %s: %w", w.row, err)
				}
				var area, access stats.Mean
				for _, g := range gens {
					for i := uint64(0); i < n; i++ {
						g.Next()
					}
					area.Observe(g.Proc.SharedAreaRatio())
					access.Observe(g.Proc.SharedAccessRatio())
				}
				return TableIRow{
					Workload:     w.row,
					SharedArea:   area.Value(),
					SharedAccess: access.Value(),
				}, nil
			},
		})
	}
	res, err := RunCells(cells, opts)
	if err != nil {
		return nil, nil, err
	}

	var rows []TableIRow
	for _, r := range res {
		rows = append(rows, r.Value.(TableIRow))
	}
	t := stats.NewTable("Table I: ratio of r/w shared memory area and accesses to the r/w shared regions",
		"workload", "shared area", "shared access")
	for _, r := range rows {
		t.AddRow(r.Workload, stats.Percent(r.SharedArea), stats.Percent(r.SharedAccess))
	}
	return rows, t, nil
}
