// Big-memory scaling: the motivation for many-segment delayed translation.
//
// Fixed-granularity delayed TLBs stop helping once the page working set
// exceeds any affordable TLB (Figure 4 of the paper); variable-length
// segments translate the same workload with a handful of entries. This
// example sweeps the delayed TLB size on a GUPS-style random-access
// workload and then shows the many-segment translator handling it with a
// ~16-cycle warm walk.
package main

import (
	"fmt"
	"log"

	"hybridvc"
	"hybridvc/internal/pipeline"
	"hybridvc/internal/stats"
)

func main() {
	const workload = "gups"
	const insns = 100_000

	fmt.Println("delayed TLB scaling on gups (random access over ~1 GiB):")
	fmt.Printf("%-28s %-10s %s\n", "configuration", "cycles", "delayed-TLB MPKI")
	var first uint64
	for _, entries := range []int{1024, 4096, 16384, 65536} {
		sys, err := hybridvc.New(hybridvc.Config{
			Org:               hybridvc.HybridDelayedTLB,
			DelayedTLBEntries: entries,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.LoadWorkload(workload); err != nil {
			log.Fatal(err)
		}
		report, err := sys.Run(insns)
		if err != nil {
			log.Fatal(err)
		}
		misses := sys.Mem.BaseState().Counts.Misses(pipeline.TLBDelayed)
		mpki := 1000 * float64(misses) / float64(report.Instructions)
		fmt.Printf("%-28s %-10d %.1f\n",
			fmt.Sprintf("delayed TLB, %5d entries", entries), report.Cycles, mpki)
		if first == 0 {
			first = report.Cycles
		}
	}

	sys, err := hybridvc.New(hybridvc.Config{Org: hybridvc.HybridManySegSC})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.LoadWorkload(workload); err != nil {
		log.Fatal(err)
	}
	report, err := sys.Run(insns)
	if err != nil {
		log.Fatal(err)
	}
	// Every delayed translation, demand or writeback, looks up the SC.
	c := &sys.Mem.BaseState().Counts
	scHitRate := stats.Ratio(c.DelayedSCHits, c.DelayedDemand+c.DelayedWritebacks)
	fmt.Printf("%-28s %-10d (SC hit rate %.1f%%, %d segments cover the heap)\n",
		"many-segment + SC", report.Cycles, 100*scHitRate, sys.Kernel.MaxSegments())
	fmt.Printf("\nmany-segment speedup over the 1K delayed TLB: %.2fx\n",
		float64(first)/float64(report.Cycles))
}
