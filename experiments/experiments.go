// Package experiments regenerates every table and figure of the paper's
// evaluation: Table I (shared-memory characterization), Table II (synonym
// filter effectiveness), Table III (segment counts, RMM MPKI, memory
// utilization), Figure 4 (delayed TLB scaling), Figure 7 (index cache
// sensitivity), Figure 9 (native performance), the virtualized performance
// comparison (Section VI), the translation-energy comparison, and the
// ablations called out in DESIGN.md. The same functions back the
// `tablegen` command and the root benchmark suite.
package experiments

import (
	"context"

	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/workload"
)

// Scale selects experiment fidelity: Quick for CI/benchmarks, Full for
// paper-shaped runs.
type Scale int

const (
	// Quick runs shortened instruction windows.
	Quick Scale = iota
	// Full runs the long windows.
	Full
)

// pick chooses an instruction budget by scale.
func (s Scale) pick(quick, full uint64) uint64 {
	if s == Full {
		return full
	}
	return quick
}

// driveMem replays n instructions per generator through the memory system
// without the timing cores — the paper's Pin-style trace model (used for
// Tables I-III and the structure-sensitivity figures, where only access
// counts matter). Generators round-robin over the system's cores in
// chunks of 256 instructions; each chunk's references go to the memory
// system in one AccessBatch call, in program order. It checks ctx once
// per chunk and returns its cause once it is cancelled.
func driveMem(ctx context.Context, ms core.MemSystem, gens []*workload.Generator, n uint64) error {
	cores := ms.Hierarchy().NumCores()
	const chunk = 256
	done := make([]uint64, len(gens))
	reqs := make([]core.Request, 0, chunk)
	res := make([]core.Result, chunk)
	for remaining := true; remaining; {
		remaining = false
		for gi, g := range gens {
			if done[gi] >= n {
				continue
			}
			remaining = true
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			c := gi % cores
			reqs = reqs[:0]
			for i := 0; i < chunk && done[gi] < n; i++ {
				in := g.Next()
				done[gi]++
				if !in.IsMem {
					continue
				}
				kind := cache.Read
				if in.IsStore {
					kind = cache.Write
				}
				reqs = append(reqs, core.Request{Core: c, Kind: kind, VA: in.VA, Proc: g.Proc})
			}
			ms.AccessBatch(reqs, res)
		}
	}
	return nil
}
