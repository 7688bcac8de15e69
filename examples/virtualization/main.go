// Virtualization: two-dimensional translation is the costliest part of
// hardware-assisted virtual memory — a cold nested walk reads up to 24
// page table entries (gVA -> gPA -> MA). The paper's hybrid design defers
// the whole 2D translation past the LLC, where most of it never happens.
//
// This example runs the same guest workload on the virtualized baseline
// (2D walker + nested-TLB translation cache) and on the virtualized
// hybrid design, then demonstrates a hypervisor-induced synonym: two
// guest frames backed by one machine frame, detected by the host filter.
package main

import (
	"fmt"
	"log"

	"hybridvc"
	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/osmodel"
)

func main() {
	const workload = "mcf"
	const insns = 150_000

	run := func(org hybridvc.Organization) uint64 {
		sys, err := hybridvc.New(hybridvc.Config{
			Org:        org,
			PhysBytes:  32 << 30,
			GuestBytes: 8 << 30,
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
		fmt.Println(" ", report)
		return report.Cycles
	}

	fmt.Printf("guest workload %q inside a VM, %d instructions\n\n", workload, insns)
	fmt.Println("2D-walk baseline (nested TLB translation cache):")
	base := run(hybridvc.Virt2D)
	fmt.Println("\nvirtualized hybrid (guest+host filters, delayed 2-step segments):")
	hyb := run(hybridvc.VirtHybrid)
	fmt.Printf("\nvirtualized speedup: %.2fx\n\n", float64(base)/float64(hyb))

	// Hypervisor-induced synonym demo: the hypervisor makes one machine
	// frame back two guest frames. The guest OS knows nothing about it —
	// the host filter (indexed by gVA) detects the synonym.
	sys, err := hybridvc.New(hybridvc.Config{
		Org: hybridvc.VirtHybrid, PhysBytes: 8 << 30, GuestBytes: 1 << 30,
	})
	if err != nil {
		log.Fatal(err)
	}
	p, err := sys.Kernel.NewProcess()
	if err != nil {
		log.Fatal(err)
	}
	gvaA, err := p.Mmap(addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
	if err != nil {
		log.Fatal(err)
	}
	gvaB, err := p.Mmap(addr.PageSize, addr.PermRW, osmodel.MmapOpts{})
	if err != nil {
		log.Fatal(err)
	}
	sys.VM.TrackProcessRegion(p, gvaA, addr.PageSize)
	sys.VM.TrackProcessRegion(p, gvaB, addr.PageSize)
	pteA, _ := p.PT.Lookup(gvaA)
	pteB, _ := p.PT.Lookup(gvaB)
	if err := sys.Hypervisor.ShareGuestFrames(sys.VM, pteA.Frame, sys.VM, pteB.Frame); err != nil {
		log.Fatal(err)
	}

	mmu := sys.Mem.(*core.VirtHybridMMU)
	mmu.Access(core.Request{Kind: cache.Read, VA: gvaA, Proc: p})
	mmu.Access(core.Request{Kind: cache.Read, VA: gvaB, Proc: p})
	fmt.Println("hypervisor-induced sharing demo:")
	fmt.Printf("  guest filter flags gvaA: %v (guest OS unaware)\n", p.Filter.IsCandidate(gvaA))
	fmt.Printf("  host filter flags gvaA:  %v\n", sys.VM.HostFilter.IsCandidate(gvaA))
	fmt.Printf("  host filter flags gvaB:  %v\n", sys.VM.HostFilter.IsCandidate(gvaB))
	fmt.Printf("  synonym candidates seen by the MMU: %d (both accesses)\n",
		mmu.Counts.FilterCandidates)
}
