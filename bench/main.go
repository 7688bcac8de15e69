// Command bench is the repository's benchmark: simulated instructions per
// second of the in-process simulator and request latency of the hvcd
// daemon, end to end and per layer, on three workloads. Build and run it
// from the repository root with
//
//	bash bench/run.sh --workload sim-gups --seed 1 --seconds 10 --trace 0
//
// One run measures one workload for about --seconds seconds and checks
// every result it gets. The last line of standard output is a JSON object
// with the verdict and the metrics BENCHMARK.json lists: its end_to_end
// metrics with --trace 0, its per_layer metrics with --trace 1. Standard
// error carries a readable table of those and of the workload-specific
// figures; -trace-out also writes the recorded spans. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hybridvc"
)

// buildDir is where run.sh puts the binaries, relative to the repository
// root; hvcd-mixed keeps its daemon's files there while it runs.
const buildDir = ".bench_build"

// simWorkloads are the in-process workloads by name.
var simWorkloads = map[string]simWorkload{
	"sim-gups": {
		load: "gups", orgs: hybridvc.Organizations(), cores: 1, insns: 100_000,
	},
	"sim-postgres-4c": {
		load: "postgres", cores: 4, insns: 100_000,
		orgs: []hybridvc.Organization{
			hybridvc.Baseline, hybridvc.HybridManySegSC, hybridvc.RLTVC, hybridvc.Enigma, hybridvc.VirtHybrid,
		},
	},
}

func workloadNames() []string {
	names := []string{"hvcd-mixed"}
	for name := range simWorkloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed, at least 1")
	seconds := flag.Int("seconds", 10, "measuring window in seconds")
	traced := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 adds the traced passes and reports per-layer metrics")
	traceOut := flag.String("trace-out", "", "write the run header, spans and every metric as NDJSON to this file")
	flag.Parse()
	if *seed < 1 || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: want --seed >= 1, --seconds >= 1, --trace 0|1 and no arguments")
		os.Exit(2)
	}
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, window time.Duration, traced bool, traceOut string) error {
	var o *outcome
	if w, ok := simWorkloads[workload]; ok {
		o = runSimWorkload(workload, w, seed, window, traced)
		rss, err := vmHWM("/proc/self/status")
		if err != nil {
			return err
		}
		o.set("peak_rss_mb", rss)
	} else if workload == "hvcd-mixed" {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		bin := filepath.Join(filepath.Dir(exe), "hvcd")
		if _, err := os.Stat(bin); err != nil {
			return fmt.Errorf("hvcd-mixed needs the hvcd binary beside the benchmark (run bench/run.sh): %w", err)
		}
		if o, err = runHvcd(bin, seed, window, traced); err != nil {
			return err
		}
	} else {
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames(), ", "))
	}
	if traced {
		if err := runMicro(o, seed); err != nil {
			return err
		}
	}

	header := map[string]any{
		"workload": workload, "seed": seed, "seconds": window.Seconds(), "trace": traced,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	reported, err := o.table(specs)
	if err != nil {
		return err
	}
	// Everything else the run measured follows the reported metrics.
	all := append([]metric(nil), reported...)
	seen := map[string]bool{}
	for _, m := range reported {
		seen[m.Name] = true
	}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if v, ok := o.values[s.Name]; ok && !seen[s.Name] {
			all = append(all, metric{Name: s.Name, Unit: s.Unit, Value: v})
			seen[s.Name] = true
		}
	}
	for _, m := range o.detail {
		if !seen[m.Name] {
			all = append(all, m)
		}
	}
	all = append(all, metric{Name: "error_rate", Unit: "failed/attempted", Value: ratio(float64(o.failed), float64(o.attempted))})
	printTable(header, o, all)
	if traceOut != "" {
		if err := writeTrace(traceOut, header, o, all); err != nil {
			return err
		}
	}

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, map[string]map[string]any{}}
	for _, m := range reported {
		out.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printTable writes the run header, the verdict and every metric to
// standard error.
func printTable(header map[string]any, o *outcome, all []metric) {
	w := bufio.NewWriter(os.Stderr)
	defer w.Flush()
	fmt.Fprintf(w, "workload=%v seed=%v seconds=%v trace=%v gomaxprocs=%v nproc=%v %v\n",
		header["workload"], header["seed"], header["seconds"], header["trace"],
		header["gomaxprocs"], header["nproc"], header["go"])
	fmt.Fprintf(w, "attempted=%d failed=%d\n", o.attempted, o.failed)
	if o.firstFailure != "" {
		fmt.Fprintf(w, "first failure: %s\n", o.firstFailure)
	}
	for _, m := range all {
		fmt.Fprintf(w, "  %-40s %16s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
}

// vmHWM reads the peak resident set size (VmHWM) from a /proc status
// file, in MiB.
func vmHWM(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}
