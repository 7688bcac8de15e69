// Command hvcsim runs a single simulation: pick an organization, load one
// or more named workloads, run a number of instructions per core, and
// print the performance report with a translation-energy breakdown.
//
// Flag combinations are validated before any work starts, with distinct
// exit codes so scripts can tell misuse classes apart: 2 for an unknown
// organization, 3 for an invalid flag value or combination. A SIGINT
// during the run stops the simulator at a consistent boundary, flushes the
// partial report (and timeline, if requested), and exits 130.
//
// Usage:
//
//	hvcsim -org hybrid-manyseg+sc -workloads gups,mcf -insns 500000 -cores 2
//	hvcsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"

	"hybridvc"
	"hybridvc/internal/buildinfo"
	"hybridvc/internal/cache"
	"hybridvc/internal/sim"
	"hybridvc/internal/stats"
	"hybridvc/internal/workload"
)

// Exit codes. Misuse classes are distinct so wrappers and CI scripts can
// react without parsing stderr.
const (
	exitFailure     = 1   // runtime failure
	exitUnknownOrg  = 2   // -org names no selectable organization
	exitBadFlags    = 3   // invalid flag value or combination
	exitInterrupted = 130 // SIGINT: partial results were flushed
)

// options collects the validated flag set.
type options struct {
	org       string
	orgSet    bool // -org given explicitly (flag.Visit)
	workloads []string
	insns     uint64
	cores     int
	llc       int
	dtlb      int
	ic        int
	interval  uint64
	timeline  string
	compare   bool
}

// validate checks the flag set up front and returns a non-zero exit code
// with an actionable message for the first problem found. It is pure so
// the CLI contract is unit-testable without exec-ing the binary.
func (o *options) validate() (int, string) {
	if o.compare && o.orgSet {
		return exitBadFlags, "-compare sweeps every native organization; drop -org"
	}
	if !o.compare && !knownOrg(o.org) {
		var names []string
		for _, org := range hybridvc.Organizations() {
			names = append(names, string(org))
		}
		return exitUnknownOrg, fmt.Sprintf("unknown organization %q (want one of: %s)",
			o.org, strings.Join(names, ", "))
	}
	if o.cores < 1 {
		return exitBadFlags, fmt.Sprintf("-cores %d: need at least one core", o.cores)
	}
	if o.cores > cache.MaxCores {
		return exitBadFlags, fmt.Sprintf("-cores %d: the hierarchy supports at most %d cores", o.cores, cache.MaxCores)
	}
	if o.insns == 0 {
		return exitBadFlags, "-insns 0: nothing to simulate"
	}
	if o.llc < 0 {
		return exitBadFlags, fmt.Sprintf("-llc %d: size cannot be negative", o.llc)
	}
	if o.dtlb < 1 {
		return exitBadFlags, fmt.Sprintf("-dtlb %d: the delayed TLB needs at least one entry", o.dtlb)
	}
	if o.ic < 1 {
		return exitBadFlags, fmt.Sprintf("-ic %d: the index cache needs a positive size", o.ic)
	}
	for _, f := range []struct {
		flag string
		v    int
		size hybridvc.Size
	}{
		{"-llc", o.llc, hybridvc.LLCSize},
		{"-dtlb", o.dtlb, hybridvc.DelayedTLBSize},
		{"-ic", o.ic, hybridvc.IndexCacheSize},
	} {
		if err := hybridvc.CheckSize(f.size, f.v); err != nil {
			return exitBadFlags, fmt.Sprintf("%s %d: %v", f.flag, f.v, err)
		}
	}
	if len(o.workloads) == 0 {
		return exitBadFlags, "-workloads: need at least one workload name"
	}
	for _, name := range o.workloads {
		if _, ok := workload.Specs[name]; !ok {
			return exitBadFlags, fmt.Sprintf("unknown workload %q (run -list for the catalog)", name)
		}
	}
	if o.interval > 0 && o.timeline == "" {
		return exitBadFlags, fmt.Sprintf(
			"-interval %d collects a time-series nobody reads; add -timeline", o.interval)
	}
	return 0, ""
}

// splitWorkloads parses the comma-separated -workloads value, dropping
// empty entries.
func splitWorkloads(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

func main() {
	org := flag.String("org", string(hybridvc.HybridManySegSC),
		"memory system organization (see -list)")
	wls := flag.String("workloads", "gups", "comma-separated workload names")
	insns := flag.Uint64("insns", 200_000, "instructions per core")
	cores := flag.Int("cores", 1, "hardware cores")
	llc := flag.Int("llc", 0, "LLC size in bytes (0 = default 2 MiB)")
	dtlb := flag.Int("dtlb", 1024, "delayed TLB entries (hybrid-dtlb / enigma)")
	ic := flag.Int("ic", 32<<10, "index cache bytes (many-segment)")
	seed := flag.Int64("seed", 1, "workload seed")
	list := flag.Bool("list", false, "list organizations and workloads, then exit")
	jsonOut := flag.Bool("json", false, "print the report as JSON")
	compare := flag.Bool("compare", false, "run every native organization on the workloads and rank by cycles")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	timeline := flag.String("timeline", "", "write the interval time-series to this file (.csv = CSV, else NDJSON)")
	interval := flag.Uint64("interval", 0, "instructions per time-series interval (0 = 10000 when -timeline is set)")
	version := buildinfo.Flag()
	flag.Parse()
	buildinfo.HandleFlag(version, "hvcsim")

	if *list {
		fmt.Println("organizations:")
		for _, o := range hybridvc.Organizations() {
			fmt.Printf("  %s\n", o)
		}
		fmt.Println("workloads:")
		var names []string
		for name := range workload.Specs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, n := range names {
			s := workload.Specs[n]
			fmt.Printf("  %-11s %4d regions, %5.1f MiB, %d proc(s)\n",
				n, len(s.Regions), float64(s.TotalBytes())/(1<<20), max(1, s.Procs))
		}
		return
	}

	opts := options{
		org:       *org,
		workloads: splitWorkloads(*wls),
		insns:     *insns,
		cores:     *cores,
		llc:       *llc,
		dtlb:      *dtlb,
		ic:        *ic,
		interval:  *interval,
		timeline:  *timeline,
		compare:   *compare,
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "org" {
			opts.orgSet = true
		}
	})
	if code, msg := opts.validate(); code != 0 {
		fmt.Fprintf(os.Stderr, "hvcsim: %s\n", msg)
		if code == exitUnknownOrg {
			flag.Usage()
		}
		os.Exit(code)
	}

	stopCPU := startCPUProfile(*cpuprofile)

	if opts.compare {
		runComparison(*wls, opts.insns, opts.cores, opts.llc, opts.dtlb, opts.ic, *seed)
		stopCPU()
		writeMemProfile(*memprofile)
		return
	}

	if opts.timeline != "" && opts.interval == 0 {
		opts.interval = 10_000
	}
	simCfg := sim.DefaultConfig()
	simCfg.Interval = opts.interval

	sys, err := hybridvc.New(hybridvc.Config{
		Org:               hybridvc.Organization(opts.org),
		Cores:             opts.cores,
		LLCBytes:          opts.llc,
		DelayedTLBEntries: opts.dtlb,
		IndexCacheBytes:   opts.ic,
		Seed:              *seed,
		Sim:               simCfg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hvcsim:", err)
		os.Exit(exitFailure)
	}
	for _, name := range opts.workloads {
		if err := sys.LoadWorkload(name); err != nil {
			fmt.Fprintln(os.Stderr, "hvcsim:", err)
			os.Exit(exitFailure)
		}
	}

	// Drive the simulator directly (rather than through sys.Run) so the
	// SIGINT handler can stop it at a consistent access boundary.
	simulator := sim.New(simCfg, sys.Mem, sys.Generators())
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "hvcsim: interrupt — flushing partial results (interrupt again to abort)")
		simulator.Stop()
		<-sigs
		os.Exit(exitInterrupted)
	}()
	report := simulator.Run(opts.insns)
	signal.Stop(sigs)

	if opts.timeline != "" {
		if err := writeTimeline(opts.timeline, simulator.Timeline()); err != nil {
			fmt.Fprintln(os.Stderr, "hvcsim:", err)
			os.Exit(exitFailure)
		}
		fmt.Fprintf(os.Stderr, "hvcsim: wrote %d intervals to %s\n",
			simulator.Timeline().Len(), opts.timeline)
	}
	stopCPU()
	writeMemProfile(*memprofile)
	if *jsonOut {
		fmt.Println(report.JSON())
	} else {
		fmt.Println(report)
		fmt.Printf("per-core IPC: ")
		for i, ipc := range report.PerCoreIPC {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%.3f", ipc)
		}
		fmt.Println()
		fmt.Println("\ntranslation energy breakdown:")
		fmt.Print(sys.Mem.Energy().Breakdown())
	}
	if simulator.Interrupted() {
		fmt.Fprintf(os.Stderr, "hvcsim: run interrupted after %d instructions; report above is partial\n",
			report.Instructions)
		os.Exit(exitInterrupted)
	}
}

// writeTimeline writes the time-series to path: CSV when the extension
// is .csv, NDJSON otherwise.
func writeTimeline(path string, tl *stats.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.EqualFold(filepath.Ext(path), ".csv") {
		return tl.WriteCSV(f)
	}
	return tl.WriteNDJSON(f)
}

// knownOrg reports whether name is a selectable organization.
func knownOrg(name string) bool {
	for _, o := range hybridvc.Organizations() {
		if string(o) == name {
			return true
		}
	}
	return false
}

// startCPUProfile begins CPU profiling when path is non-empty; the
// returned function stops profiling and closes the file.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hvcsim:", err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "hvcsim:", err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeMemProfile dumps a heap profile (after a GC, so the profile shows
// live allocations) when path is non-empty.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hvcsim:", err)
		os.Exit(1)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "hvcsim:", err)
		os.Exit(1)
	}
}

// runComparison runs the workloads on every native organization and prints
// a ranking. Virtualized organizations are skipped (different substrate);
// OVC is skipped when more than one core is requested.
func runComparison(wls string, insns uint64, cores, llc, dtlb, ic int, seed int64) {
	type row struct {
		org    hybridvc.Organization
		report string
		cycles uint64
	}
	var rows []row
	for _, org := range hybridvc.Organizations() {
		if org.Virtualized() || (org == hybridvc.OVC && cores != 1) {
			continue
		}
		sys, err := hybridvc.New(hybridvc.Config{
			Org: org, Cores: cores, LLCBytes: llc,
			DelayedTLBEntries: dtlb, IndexCacheBytes: ic, Seed: seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "hvcsim:", err)
			os.Exit(1)
		}
		for _, name := range strings.Split(wls, ",") {
			if err := sys.LoadWorkload(strings.TrimSpace(name)); err != nil {
				fmt.Fprintln(os.Stderr, "hvcsim:", err)
				os.Exit(1)
			}
		}
		rep, err := sys.Run(insns)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hvcsim:", err)
			os.Exit(1)
		}
		rows = append(rows, row{org, rep.String(), rep.Cycles})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].cycles < rows[j].cycles })
	fmt.Printf("workloads %q, %d instructions/core, %d core(s) — fastest first:\n", wls, insns, cores)
	for i, r := range rows {
		fmt.Printf("%2d. %s\n", i+1, r.report)
	}
}
