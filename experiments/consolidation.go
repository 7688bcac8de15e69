package experiments

import (
	"context"
	"fmt"

	"hybridvc/internal/baseline"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/cpu"
	"hybridvc/internal/sim"
	"hybridvc/internal/stats"
	"hybridvc/internal/virt"
	"hybridvc/internal/workload"
)

// consolidationCell runs the two-VM dual-core consolidation scenario with
// either the 2D-walk baseline or the virtualized hybrid memory system.
func consolidationCell(ctx context.Context, hybrid bool, n uint64) (uint64, error) {
	wls := [2]string{"mcf", "omnetpp"}
	hv := virt.NewHypervisor(32 << 30)
	vmA, err := hv.NewVM(4<<30, 2)
	if err != nil {
		return 0, err
	}
	vmB, err := hv.NewVM(4<<30, 2)
	if err != nil {
		return 0, err
	}
	var ms core.MemSystem
	if hybrid {
		m := core.NewVirtHybridMMU(core.DefaultVirtHybridConfig(2), vmA, hv)
		m.AddVM(vmB)
		ms = m
	} else {
		v := baseline.NewVirt2D(baseline.Config{
			Hier:   cache.DefaultHierarchyConfig(2),
			DRAM:   baseline.DefaultConfig(2).DRAM,
			Energy: baseline.DefaultConfig(2).Energy,
		}, vmA)
		v.AddVM(vmB)
		ms = v
	}
	var gens []*workload.Generator
	for i, vm := range []*virt.VM{vmA, vmB} {
		g, err := workload.NewGroup(workload.Specs[wls[i]], vm.Kernel, 1)
		if err != nil {
			return 0, fmt.Errorf("consolidation %s: %w", wls[i], err)
		}
		gens = append(gens, g...)
	}
	s := sim.New(sim.Config{CPU: cpu.DefaultConfig(), FetchEvery: 8, Timeslice: 50_000, Interleave: 128}, ms, gens)
	rep, err := s.RunContext(ctx, n)
	if err != nil {
		return 0, err
	}
	return rep.Cycles, nil
}

// Consolidation runs two virtual machines on one dual-core processor —
// the server-consolidation scenario Section V targets — comparing the
// 2D-walk baseline against the virtualized hybrid design. VMID-extended
// ASIDs keep the VMs' virtually named lines apart while they share the
// LLC and the delayed translation hardware.
func Consolidation(scale Scale, opts RunOptions) (*stats.Table, error) {
	n := scale.pick(25_000, 400_000)
	cells := []Cell{
		{Label: "consolidation/2d-baseline", Fn: func(ctx context.Context) (any, error) { return consolidationCell(ctx, false, n) }},
		{Label: "consolidation/virt-hybrid", Fn: func(ctx context.Context) (any, error) { return consolidationCell(ctx, true, n) }},
	}
	res, err := RunCells(cells, opts)
	if err != nil {
		return nil, err
	}
	base := res[0].Value.(uint64)
	hyb := res[1].Value.(uint64)
	t := stats.NewTable("VM consolidation: two VMs on a dual-core processor",
		"configuration", "cycles", "speedup")
	t.AddRow("2D-walk baseline", fmt.Sprintf("%d", base), "1.000")
	t.AddRow("virtualized hybrid", fmt.Sprintf("%d", hyb),
		fmt.Sprintf("%.3f", float64(base)/float64(hyb)))
	return t, nil
}
