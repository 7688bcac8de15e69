package experiments

import (
	"context"
	"fmt"

	"hybridvc/internal/baseline"
	"hybridvc/internal/core"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/pipeline"
	"hybridvc/internal/stats"
	"hybridvc/internal/workload"
)

// TableIIRow is one row of Table II: synonym filter false-positive access
// rate, TLB access reduction, and total TLB miss reduction versus the
// conventional two-level TLB baseline.
type TableIIRow struct {
	Workload          string
	FalsePositiveRate float64
	AccessReduction   float64
	MissReduction     float64
}

var tableIIWorkloads = []string{"ferret", "postgres", "specjbb", "firefox", "apache"}

// tableIICell runs one workload through both the proposed hybrid and the
// conventional baseline trace models and compares their TLB behavior.
func tableIICell(ctx context.Context, name string, n uint64) (TableIIRow, error) {
	const llc = 8 << 20
	spec := workload.Specs[name]

	// Proposed: hybrid with page-granularity delayed translation.
	kh := osmodel.NewKernel(osmodel.Config{PhysBytes: 16 << 30})
	hcfg := core.DefaultHybridConfig(1)
	hcfg.Hier.LLC.SizeBytes = llc
	hcfg.Delayed = core.DelayedPageTLB
	hcfg.DelayedTLBEntries = 1024
	hybrid := core.NewHybridMMU(hcfg, kh)
	hgens, err := workload.NewGroup(spec, kh, 1)
	if err != nil {
		return TableIIRow{}, fmt.Errorf("table2 %s: %w", name, err)
	}
	if err := driveMem(ctx, hybrid, hgens, n); err != nil {
		return TableIIRow{}, err
	}

	// Baseline: conventional two-level TLB.
	kb := osmodel.NewKernel(osmodel.Config{PhysBytes: 16 << 30})
	bcfg := baseline.DefaultConfig(1)
	bcfg.Hier.LLC.SizeBytes = llc
	base := baseline.NewConventional(bcfg, kb)
	bgens, err := workload.NewGroup(spec, kb, 1)
	if err != nil {
		return TableIIRow{}, fmt.Errorf("table2 %s: %w", name, err)
	}
	if err := driveMem(ctx, base, bgens, n); err != nil {
		return TableIIRow{}, err
	}

	// Synonym-TLB lookups are set against the baseline's L1 TLB lookups,
	// and synonym plus delayed TLB misses against its walks (L2 misses).
	hc, bc := &hybrid.Counts, &base.Counts
	proposedMisses := hc.Misses(pipeline.TLBSynonym) + hc.Misses(pipeline.TLBDelayed)
	return TableIIRow{
		Workload:          name,
		FalsePositiveRate: stats.Ratio(hc.FalsePositives, hc.FilterProbes),
		AccessReduction:   1 - stats.Ratio(hc.TLBLookups[pipeline.TLBSynonym], bc.TLBLookups[pipeline.TLBL1]),
		MissReduction:     1 - stats.Ratio(proposedMisses, bc.Misses(pipeline.TLBL2)),
	}, nil
}

// TableII reproduces the Table II trace-based study: an 8 MiB cache
// filters translation requests; the proposed system uses a 64-entry
// synonym TLB plus a 1024-entry delayed TLB (equal total TLB area to the
// baseline's 64-entry L1 + 1024-entry L2). One runner cell per workload.
func TableII(scale Scale, opts RunOptions) ([]TableIIRow, *stats.Table, error) {
	n := scale.pick(150_000, 3_000_000)
	var cells []Cell
	for _, name := range tableIIWorkloads {
		name := name
		cells = append(cells, Cell{
			Label: "table2/" + name,
			Fn:    func(ctx context.Context) (any, error) { return tableIICell(ctx, name, n) },
		})
	}
	res, err := RunCells(cells, opts)
	if err != nil {
		return nil, nil, err
	}

	var rows []TableIIRow
	for _, r := range res {
		rows = append(rows, r.Value.(TableIIRow))
	}
	t := stats.NewTable("Table II: false positive rates, TLB access and miss reduction",
		"workload", "false positive rate", "TLB access reduction", "total TLB miss reduction")
	for _, r := range rows {
		t.AddRow(r.Workload,
			fmt.Sprintf("%.4f%%", 100*r.FalsePositiveRate),
			fmt.Sprintf("%.1f%%", 100*r.AccessReduction),
			fmt.Sprintf("%.1f%%", 100*r.MissReduction))
	}
	return rows, t, nil
}
