package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"hybridvc/internal/addr"
	"hybridvc/internal/core"
	"hybridvc/internal/mem"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/segment"
	"hybridvc/internal/stats"
	"hybridvc/internal/workload"
)

// Figure7Sizes are the index cache capacities swept (64 B to 64 KiB).
var Figure7Sizes = []int{64, 256, 512, 1 << 10, 2 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}

// Figure7Series is one index-cache hit-rate curve.
type Figure7Series struct {
	Label string
	// Sizes are the index cache capacities probed, parallel to HitRates.
	Sizes    []int
	HitRates []float64
}

// figure7SingleWorkloads drive the single-application curves; the paper
// picks the ten workloads causing the most misses. External fragmentation
// is injected by splitting every segment into ten pieces.
var figure7SingleWorkloads = []string{"mcf", "xalancbmk", "tigr", "omnetpp", "memcached"}

// fig7aCell measures one (workload set × index cache size) point: hybrid
// MMU with the segment cache disabled, x10 external fragmentation.
func fig7aCell(ctx context.Context, names []string, cores, size int, n uint64) (float64, error) {
	k := osmodel.NewKernel(osmodel.Config{PhysBytes: 32 << 30})
	cfg := core.DefaultHybridConfig(cores)
	cfg.Delayed = core.DelayedSegments
	cfg.WithSegmentCache = false // expose the index cache
	cfg.IndexCacheBytes = size
	ms := core.NewHybridMMU(cfg, k)
	var gens []*workload.Generator
	for _, name := range names {
		g, err := workload.NewGroup(workload.Specs[name], k, 1)
		if err != nil {
			return 0, fmt.Errorf("fig7a %s: %w", name, err)
		}
		gens = append(gens, g...)
	}
	// Inject external fragmentation: up to x10 segments per region, capped
	// so the 2048-entry segment table holds the result.
	if factor := fragmentFactor(k.MaxSegments()); factor >= 2 {
		for _, g := range gens {
			if err := k.FragmentSegments(g.Proc, factor); err != nil {
				return 0, fmt.Errorf("fig7a fragmentation: %w", err)
			}
		}
	}
	if err := driveMem(ctx, ms, gens, n); err != nil {
		return 0, err
	}
	return ms.Translator().IC.Stats().HitRate(), nil
}

// Figure7a measures index cache hit rates for real workloads (single
// applications and a quad-core multiprogrammed mix), with each segment
// artificially broken into 10 to add external fragmentation.
func Figure7a(scale Scale, opts RunOptions) ([]Figure7Series, *stats.Table, error) {
	n := scale.pick(60_000, 1_000_000)
	sizes := Figure7Sizes
	if scale == Quick {
		sizes = []int{64, 512, 2 << 10, 8 << 10, 32 << 10, 64 << 10}
	}
	singles := figure7SingleWorkloads
	if scale == Quick {
		singles = []string{"mcf", "xalancbmk", "omnetpp"}
	}
	type curve struct {
		label string
		names []string
		cores int
	}
	var curves []curve
	for _, name := range singles {
		curves = append(curves, curve{name, []string{name}, 1})
	}
	curves = append(curves, curve{"multi (quad-core mix)", []string{"mcf", "xalancbmk", "omnetpp", "tigr"}, 4})

	var cells []Cell
	for _, cv := range curves {
		for _, size := range sizes {
			cv, size := cv, size
			cells = append(cells, Cell{
				Label: fmt.Sprintf("fig7a/%s/%d", cv.label, size),
				Fn: func(ctx context.Context) (any, error) {
					return fig7aCell(ctx, cv.names, cv.cores, size, n)
				},
			})
		}
	}
	res, err := RunCells(cells, opts)
	if err != nil {
		return nil, nil, err
	}

	var series []Figure7Series
	for ci, cv := range curves {
		s := Figure7Series{Label: cv.label, Sizes: sizes}
		for si := range sizes {
			s.HitRates = append(s.HitRates, res[ci*len(sizes)+si].Value.(float64))
		}
		series = append(series, s)
	}
	t := figure7Table("Figure 7a: index cache hit rate, real workloads (x10 fragmentation)", sizes, series)
	return series, t, nil
}

// fig7bCell measures one synthetic worst-case point: segs equal segments
// over a 40-bit space, probed uniformly at random through an index cache
// of the given size.
func fig7bCell(segs int, incremental bool, size int, n uint64) (float64, error) {
	alloc := mem.NewAllocator(1 << 34)
	mgr := segment.NewManager(segment.NewNodeArena(alloc))
	ic := segment.NewIndexCache(size)
	mgr.OnRebuild = ic.Flush
	asid := addr.MakeASID(0, 1)
	// Distribute the 40-bit space over the segments.
	segLen := uint64(1<<40) / uint64(segs)
	entries := make([]segment.TreeEntry, 0, segs)
	for i := 0; i < segs; i++ {
		seg := &segment.Segment{
			ASID: asid, Base: addr.VA(uint64(i) * segLen),
			Length: segLen, PABase: 0, Perm: addr.PermRW,
		}
		id, ok := mgr.Table.Alloc(seg)
		if !ok {
			return 0, fmt.Errorf("fig7b: table full at %d segments", i)
		}
		entries = append(entries, segment.TreeEntry{
			Key: segment.MakeKey(asid, seg.Base), Value: id,
		})
	}
	if incremental {
		// Insert in shuffled order, as an OS would allocate.
		for _, i := range rand.New(rand.NewSource(19)).Perm(len(entries)) {
			if err := mgr.Tree.Insert(entries[i]); err != nil {
				return 0, err
			}
		}
	} else {
		mgr.Tree.Build(entries)
	}
	tr := segment.NewTranslator(segment.DefaultTranslatorConfig(), nil, ic, mgr)
	rng := rand.New(rand.NewSource(17))
	for i := uint64(0); i < n; i++ {
		tr.Translate(asid, addr.VA(rng.Uint64()&(1<<40-1)))
	}
	return ic.Stats().HitRate(), nil
}

// Figure7b measures the worst case: 1024 or 2048 equally sized segments
// spread over a 40-bit physical space, probed uniformly at random. For
// 2048 segments two tree constructions are compared: the bulk-built,
// perfectly packed tree (≈25 KiB — it fits a 32 KiB index cache entirely)
// and an incrementally maintained tree at its natural ~2/3 fill factor,
// which reproduces the paper's 75.5%-at-32 KiB figure.
func Figure7b(scale Scale, opts RunOptions) ([]Figure7Series, *stats.Table, error) {
	n := scale.pick(200_000, 1_000_000)
	curves := []struct {
		label       string
		segs        int
		incremental bool
	}{
		{"1024 entry", 1024, false},
		{"2048 entry", 2048, false},
		{"2048 entry (incremental tree)", 2048, true},
	}
	var cells []Cell
	for _, cv := range curves {
		for _, size := range Figure7Sizes {
			cv, size := cv, size
			cells = append(cells, Cell{
				Label: fmt.Sprintf("fig7b/%s/%d", cv.label, size),
				Fn: func(context.Context) (any, error) {
					return fig7bCell(cv.segs, cv.incremental, size, n)
				},
			})
		}
	}
	res, err := RunCells(cells, opts)
	if err != nil {
		return nil, nil, err
	}

	var series []Figure7Series
	for ci, cv := range curves {
		s := Figure7Series{Label: cv.label, Sizes: Figure7Sizes}
		for si := range Figure7Sizes {
			s.HitRates = append(s.HitRates, res[ci*len(Figure7Sizes)+si].Value.(float64))
		}
		series = append(series, s)
	}
	t := figure7Table("Figure 7b: index cache hit rate, synthetic worst case (uniform random)", Figure7Sizes, series)
	return series, t, nil
}

// fragmentFactor picks the largest split factor (<= 10, the paper's x10)
// that keeps the fragmented segment count within the table capacity.
func fragmentFactor(current int) int {
	if current == 0 {
		return 0
	}
	f := 1800 / current
	if f > 10 {
		f = 10
	}
	return f
}

func figure7Table(title string, sizes []int, series []Figure7Series) *stats.Table {
	cols := []string{"series"}
	for _, size := range sizes {
		if size < 1024 {
			cols = append(cols, fmt.Sprintf("%dB", size))
		} else {
			cols = append(cols, fmt.Sprintf("%dKB", size/1024))
		}
	}
	t := stats.NewTable(title, cols...)
	for _, s := range series {
		row := []string{s.Label}
		for _, hr := range s.HitRates {
			row = append(row, fmt.Sprintf("%.1f%%", 100*hr))
		}
		t.AddRow(row...)
	}
	return t
}
