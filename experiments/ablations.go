package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"hybridvc"
	"hybridvc/internal/addr"
	"hybridvc/internal/bloom"
	"hybridvc/internal/core"
	"hybridvc/internal/sim"
	"hybridvc/internal/stats"
	"hybridvc/internal/synfilter"
)

// FilterDesign is one synonym filter design point for the A1 ablation.
type FilterDesign struct {
	Label string
	// Probe reports whether the design flags va as a candidate.
	Probe func(va addr.VA) bool
}

// a1Ranges regenerates the shared synonym ranges used by every A1 design
// point: 16 regions of 8 pages in the low half of the space. Each cell
// rebuilds them from the fixed seed so cells stay self-contained.
func a1Ranges() []struct {
	start addr.VA
	len   uint64
} {
	rng := rand.New(rand.NewSource(23))
	var ranges []struct {
		start addr.VA
		len   uint64
	}
	for i := 0; i < 16; i++ {
		start := addr.VA(rng.Uint64()%(1<<40)) & ^addr.VA(1<<synfilter.FineBits-1)
		ranges = append(ranges, struct {
			start addr.VA
			len   uint64
		}{start, 8 * addr.PageSize})
	}
	return ranges
}

// a1Designs builds the four filter designs over the shared ranges: the
// paper's two-granularity, two-hash design, a single fine filter, a
// single coarse filter, and a one-hash variant.
func a1Designs() []FilterDesign {
	paper := synfilter.New()
	fineOnly := bloom.New(addr.VABits - synfilter.FineBits)
	coarseOnly := bloom.New(addr.VABits - synfilter.CoarseBits)
	oneHash := bloom.New(addr.VABits - synfilter.FineBits) // probe uses one index

	for _, r := range a1Ranges() {
		paper.MarkSynonymRange(r.start, r.len)
		for off := uint64(0); off < r.len; off += addr.PageSize {
			va := r.start + addr.VA(off)
			fineOnly.Insert(uint64(va) >> synfilter.FineBits)
			coarseOnly.Insert(uint64(va) >> synfilter.CoarseBits)
			oneHash.Insert(uint64(va) >> synfilter.FineBits)
		}
	}
	return []FilterDesign{
		{"two-granularity x two-hash (paper)", paper.IsCandidate},
		{"fine 32KB only", func(va addr.VA) bool {
			return fineOnly.Contains(uint64(va) >> synfilter.FineBits)
		}},
		{"coarse 16MB only", func(va addr.VA) bool {
			return coarseOnly.Contains(uint64(va) >> synfilter.CoarseBits)
		}},
		{"fine, single hash", func(va addr.VA) bool {
			return containsOne(oneHash, uint64(va)>>synfilter.FineBits)
		}},
	}
}

// AblationFilterDesign compares the paper's two-granularity, two-hash
// design against simpler filters: a single fine filter, a single coarse
// filter, and a one-hash variant. It marks realistic shared ranges (8-page
// regions) and measures false positives over a disjoint probe stream.
func AblationFilterDesign(scale Scale, opts RunOptions) (*stats.Table, error) {
	n := scale.pick(200_000, 2_000_000)
	labels := make([]string, len(a1Designs()))
	var cells []Cell
	for di, d := range a1Designs() {
		di, label := di, d.Label
		labels[di] = label
		cells = append(cells, Cell{
			Label: "ablation-a1/" + label,
			Fn: func(context.Context) (any, error) {
				// Rebuild the filters inside the cell: probes are
				// read-only, but self-contained cells need no sharing.
				d := a1Designs()[di]
				fp := uint64(0)
				probes := uint64(0)
				prng := rand.New(rand.NewSource(29))
				for i := uint64(0); i < n; i++ {
					// Probe the disjoint upper half of the address space.
					va := addr.VA(1<<41 | prng.Uint64()%(1<<40))
					probes++
					if d.Probe(va) {
						fp++
					}
				}
				return [2]uint64{fp, probes}, nil
			},
		})
	}
	res, err := RunCells(cells, opts)
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("Ablation A1: synonym filter design vs false-positive rate",
		"design", "false positives", "rate")
	for di, label := range labels {
		v := res[di].Value.([2]uint64)
		fp, probes := v[0], v[1]
		t.AddRow(label, fmt.Sprintf("%d", fp),
			fmt.Sprintf("%.4f%%", 100*stats.Ratio(fp, probes)))
	}
	return t, nil
}

// containsOne checks only the first hash function's bit — the single-hash
// ablation.
func containsOne(f *bloom.Filter, granule uint64) bool {
	i1, _ := f.Indices(granule)
	w := f.Words()
	return w[i1/64]&(1<<(i1%64)) != 0
}

// AblationSegmentCache quantifies the segment cache's contribution (the
// Figure 9 with/without-SC pair) on a friendly and an adversarial
// workload.
func AblationSegmentCache(scale Scale, opts RunOptions) (*stats.Table, error) {
	n := scale.pick(40_000, 500_000)
	workloads := []string{"stream", "gups"}
	orgs := []hybridvc.Organization{hybridvc.HybridManySeg, hybridvc.HybridManySegSC}
	var cells []Cell
	for _, wl := range workloads {
		for _, org := range orgs {
			cells = append(cells, Cell{
				Label:        fmt.Sprintf("ablation-a2/%s/%s", wl, org),
				Config:       hybridvc.Config{Org: org},
				Workloads:    []string{wl},
				Instructions: n,
			})
		}
	}
	res, err := RunCells(cells, opts)
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("Ablation A2: segment cache on/off",
		"workload", "many-segment cycles", "+SC cycles", "SC speedup")
	for wi, wl := range workloads {
		without := res[wi*len(orgs)].Report.Cycles
		with := res[wi*len(orgs)+1].Report.Cycles
		t.AddRow(wl, fmt.Sprintf("%d", without), fmt.Sprintf("%d", with),
			fmt.Sprintf("%.3f", float64(without)/float64(with)))
	}
	return t, nil
}

// walkStats carries the translator's walk statistics out of a cell.
type walkStats struct {
	walks     uint64
	meanDepth float64
	maxDepth  uint64
}

// SegmentWalkLatency reports the delayed many-segment translation latency
// distribution, validating the paper's ~20-cycle estimate (<=4 index cache
// probes at 3 cycles plus a 7-cycle segment table access).
func SegmentWalkLatency(scale Scale, opts RunOptions) (*stats.Table, error) {
	n := scale.pick(60_000, 500_000)
	cells := []Cell{{
		Label:        "latency/xalancbmk/many-segment",
		Config:       hybridvc.Config{Org: hybridvc.HybridManySeg},
		Workloads:    []string{"xalancbmk"},
		Instructions: n,
		Extract: func(sys *hybridvc.System, _ sim.Report) (any, error) {
			tr := sys.Mem.(*core.HybridMMU).Translator()
			return walkStats{
				walks:     tr.Walks.Value(),
				meanDepth: tr.WalkDepth.Mean(),
				maxDepth:  tr.WalkDepth.Max(),
			}, nil
		},
	}}
	res, err := RunCells(cells, opts)
	if err != nil {
		return nil, err
	}
	ws := res[0].Value.(walkStats)

	t := stats.NewTable("Delayed many-segment translation walk statistics (Section IV-C)",
		"metric", "value")
	t.AddRow("index tree walks", fmt.Sprintf("%d", ws.walks))
	t.AddRow("mean walk depth (nodes)", fmt.Sprintf("%.2f", ws.meanDepth))
	t.AddRow("max walk depth (nodes)", fmt.Sprintf("%d", ws.maxDepth))
	warmCycles := ws.meanDepth*3 + 7
	t.AddRow("warm walk latency (cycles)", fmt.Sprintf("%.1f", warmCycles))
	t.AddRow("paper estimate (cycles)", "<= 19-20")
	return t, nil
}
