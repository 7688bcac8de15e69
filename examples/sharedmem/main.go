// Shared memory and the synonym filter: a postgres-like multi-process
// workload where four processes communicate through a 128 MiB r/w shared
// region (a synonym region: the same physical pages appear at different
// virtual addresses in each process).
//
// The example shows the paper's synonym machinery end to end:
//   - the OS marks the shared range in each process's Bloom filter pair;
//   - accesses to shared pages are detected and cached by physical
//     address, so every process hits the same cache lines (the single-name
//     invariant removes the synonym coherence problem);
//   - private accesses bypass the TLB entirely — the Table II effect.
package main

import (
	"fmt"
	"log"

	"hybridvc"
	"hybridvc/internal/core"
)

func main() {
	sys, err := hybridvc.New(hybridvc.Config{Org: hybridvc.HybridManySegSC})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.LoadWorkload("postgres"); err != nil {
		log.Fatal(err)
	}
	report, err := sys.Run(300_000)
	if err != nil {
		log.Fatal(err)
	}

	mmu := sys.Mem.(*core.HybridMMU)
	gens := sys.Generators()
	fmt.Printf("postgres-like workload: %d processes, one shared region\n\n", len(gens))

	p := gens[0].Proc
	fine, coarse := p.Filter.Occupancy()
	fmt.Printf("synonym filter occupancy (proc 0): fine %.1f%%, coarse %.1f%%\n",
		100*fine, 100*coarse)

	c := &mmu.Counts
	total := c.FilterProbes
	fmt.Printf("memory references:        %d\n", total)
	fmt.Printf("synonym candidates:       %d (%.1f%%)\n",
		c.FilterCandidates,
		100*float64(c.FilterCandidates)/float64(total))
	fmt.Printf("  true synonyms:          %d\n", mmu.TrueSynonymAccesses.Value())
	fmt.Printf("  filter false positives: %d (%.4f%% of all references)\n",
		c.FalsePositives,
		100*float64(c.FalsePositives)/float64(total))
	fmt.Printf("TLB accesses avoided:     %.1f%% of references bypass the TLB\n",
		100*float64(total-c.FilterCandidates)/float64(total))

	fmt.Printf("\nshared area / shared access (Table I metrics): %.1f%% / %.1f%%\n",
		100*p.SharedAreaRatio(), 100*p.SharedAccessRatio())
	fmt.Printf("\n%v\n", report)
}
