package experiments

import (
	"context"
	"encoding/json"
	"fmt"

	"hybridvc"
	"hybridvc/internal/core"
	"hybridvc/internal/fault"
	"hybridvc/internal/sim"
	"hybridvc/internal/stats"
)

// faultWorkload is the fixed workload of the fault sweep: the multi-
// process shared-memory mix, so filter corruption and shootdown bursts
// land on live synonym state.
const faultWorkload = "postgres"

// FaultSweep runs the deterministic fault injector with the invariant
// checker attached: every organization under the full fault mix, plus
// each fault kind in isolation on the flagship hybrid design. Each cell
// reports its injection schedule and timing fingerprint; a cell whose
// checker observes any violation fails the sweep. The table is
// byte-stable — the golden test pins that injected faults are fully
// deterministic (same seed, same schedule, same perturbed timings) for
// any worker count.
func FaultSweep(s Scale, opts RunOptions) (*stats.Table, error) {
	insns := s.pick(20_000, 100_000)
	simCfg := sim.DefaultConfig()
	simCfg.Timeslice = 10_000

	var cells []Cell
	addCell := func(org hybridvc.Organization, label string, kinds []fault.Kind) {
		cells = append(cells, Cell{
			Label:       fmt.Sprintf("faults/%s/%s/%s", faultWorkload, org, label),
			Fn:          faultCell(org, label, kinds, simCfg, insns),
			DecodeValue: decodeStringRow,
		})
	}
	for _, org := range hybridvc.Organizations() {
		addCell(org, "mixed", nil)
	}
	for _, k := range fault.AllKinds() {
		addCell(hybridvc.HybridManySegSC, k.String(), []fault.Kind{k})
	}

	results, err := RunCells(cells, opts)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fault injection: determinism and invariants under faults",
		"org", "workload", "faults", "injected", "skipped", "checks",
		"cycles", "insns", "ipc", "walk_retries", "shootdowns")
	for _, r := range results {
		t.AddRow(r.Value.([]string)...)
	}
	return t, nil
}

// faultCell builds, perturbs and audits one organization.
func faultCell(org hybridvc.Organization, label string, kinds []fault.Kind, simCfg sim.Config, insns uint64) func(context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		sys, err := hybridvc.New(hybridvc.Config{Org: org, Cores: 1, Sim: simCfg})
		if err != nil {
			return nil, err
		}
		inj, ch, err := sys.InjectFaults(fault.Config{Seed: 13, Period: 1024, Kinds: kinds})
		if err != nil {
			return nil, err
		}
		if err := sys.LoadWorkload(faultWorkload); err != nil {
			return nil, err
		}
		rep, err := sys.RunContext(ctx, insns)
		if err != nil {
			return nil, err
		}
		if err := inj.Err(); err != nil {
			return nil, fmt.Errorf("%s under %s faults: %w", org, label, err)
		}
		if err := ch.Check(); err != nil {
			return nil, fmt.Errorf("%s after %s faults: %w", org, label, err)
		}
		base := sys.Mem.(core.BaseHolder).BaseState()
		return []string{
			string(org), faultWorkload, label,
			fmt.Sprintf("%d", inj.Total()),
			fmt.Sprintf("%d", inj.Skipped),
			fmt.Sprintf("%d", ch.Checks),
			fmt.Sprintf("%d", rep.Cycles),
			fmt.Sprintf("%d", rep.Instructions),
			fmt.Sprintf("%.6f", rep.IPC),
			fmt.Sprintf("%d", base.WalkRetries.Value()),
			fmt.Sprintf("%d", sys.Kernel.Shootdowns.Value()),
		}, nil
	}
}

// decodeStringRow restores a checkpointed []string row.
func decodeStringRow(data []byte) (any, error) {
	var row []string
	if err := json.Unmarshal(data, &row); err != nil {
		return nil, err
	}
	return row, nil
}
