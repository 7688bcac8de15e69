package experiments

import (
	"fmt"
	"strings"

	"hybridvc/internal/stats"
)

// Experiment is one named, self-describing entry of the evaluation: a
// table or figure of the paper (or an ablation) that can regenerate its
// tables at either scale. The tablegen command and the benchmark suite
// both enumerate experiments from this registry.
type Experiment struct {
	// Name is the CLI identifier (e.g. "fig9").
	Name string
	// Description is a one-line summary shown by `tablegen -list`.
	Description string
	// Run regenerates the experiment's tables at the given scale, running
	// its cells under opts. It returns an error instead of panicking;
	// partial sweeps report every failed cell.
	Run func(Scale, RunOptions) ([]*stats.Table, error)
}

var (
	registry []Experiment
	byName   = map[string]Experiment{}
)

// Add adds an experiment to the registry. Registration order is the
// canonical `-exp all` execution order. A duplicate name is rejected
// with an error — never silently overwritten, which would reorder or
// replace an experiment every other caller can already see — as is a
// missing name or Run function.
func Add(e Experiment) error {
	if e.Name == "" || e.Run == nil {
		return fmt.Errorf("experiments: Add needs a name and a Run function")
	}
	if _, dup := byName[e.Name]; dup {
		return fmt.Errorf("experiments: duplicate experiment %q", e.Name)
	}
	registry = append(registry, e)
	byName[e.Name] = e
	return nil
}

// Register adds an experiment and panics on error. It is the init-time
// form: the built-in registry is assembled once, below, where a bad
// entry is a programming error; dynamic registration should use Add and
// handle the error.
func Register(e Experiment) {
	if err := Add(e); err != nil {
		panic(err)
	}
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	e, ok := byName[name]
	return e, ok
}

// All returns every registered experiment in canonical order.
func All() []Experiment {
	return append([]Experiment(nil), registry...)
}

// Names returns the experiment names in canonical order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// Usage renders the selectable experiment names as a flag-help string
// ("table1, table2, ... , all"), so command usage cannot drift from the
// registry.
func Usage() string {
	return strings.Join(append(Names(), "all"), ", ")
}

// one adapts an experiment function returning a single table.
func one(fn func(Scale, RunOptions) (*stats.Table, error)) func(Scale, RunOptions) ([]*stats.Table, error) {
	return func(s Scale, opts RunOptions) ([]*stats.Table, error) {
		t, err := fn(s, opts)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{t}, nil
	}
}

// drop adapts an experiment function returning (typed results, table).
func drop[T any](fn func(Scale, RunOptions) (T, *stats.Table, error)) func(Scale, RunOptions) ([]*stats.Table, error) {
	return func(s Scale, opts RunOptions) ([]*stats.Table, error) {
		_, t, err := fn(s, opts)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{t}, nil
	}
}

// init assembles the registry in the canonical order of the evaluation:
// the characterization tables first, then the structure-sensitivity
// figures, the performance and energy comparisons, and the ablations.
func init() {
	Register(Experiment{"table1", "Table I: r/w shared memory area and accesses", drop(TableI)})
	Register(Experiment{"table2", "Table II: synonym filter effectiveness vs two-level TLB", drop(TableII)})
	Register(Experiment{"table3", "Table III: segment counts, RMM MPKI, memory utilization", drop(TableIII)})
	Register(Experiment{"fig4", "Figure 4: delayed TLB size scaling (normalized MPKI)", drop(Figure4)})
	Register(Experiment{"fig7a", "Figure 7a: index cache hit rate, real workloads", drop(Figure7a)})
	Register(Experiment{"fig7b", "Figure 7b: index cache hit rate, synthetic worst case", drop(Figure7b)})
	Register(Experiment{"fig9", "Figure 9: native performance (speedup over baseline)", drop(Figure9)})
	Register(Experiment{"fig10", "Virtualized performance: 2D-walk baseline vs hybrid", drop(Figure10)})
	Register(Experiment{"fig11", "Translation energy: baseline vs hybrid", drop(Figure11)})
	Register(Experiment{"multicore", "Quad-core multiprogrammed mixes", drop(Multicore)})
	Register(Experiment{"consolidation", "VM consolidation: two VMs on a dual-core processor", one(Consolidation)})
	Register(Experiment{"latency", "Delayed many-segment translation walk statistics", one(SegmentWalkLatency)})
	Register(Experiment{"ablations", "Ablations A1-A4: filter design, segment cache, huge pages, serial/parallel", func(s Scale, opts RunOptions) ([]*stats.Table, error) {
		var tables []*stats.Table
		for _, fn := range []func(Scale, RunOptions) (*stats.Table, error){
			AblationFilterDesign, AblationSegmentCache, AblationHugePages, AblationSerialParallel,
		} {
			t, err := fn(s, opts)
			if err != nil {
				return nil, err
			}
			tables = append(tables, t)
		}
		return tables, nil
	}})
	Register(Experiment{"xarch", "Translation architectures: victima and rlt-vc vs baseline TLB and hybrid Bloom filter", one(XArch)})
	Register(Experiment{"parity", "Cross-organization stat fingerprint (golden refactor-parity check)", one(Parity)})
	Register(Experiment{"faults", "Deterministic fault injection with runtime invariant checking", one(FaultSweep)})
}
