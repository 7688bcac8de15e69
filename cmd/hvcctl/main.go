// Command hvcctl is the thin CLI over the hvcd daemon API: submit jobs,
// watch them to completion, stream timelines, cancel, and introspect the
// catalogs and metrics.
//
// Usage:
//
//	hvcctl [-addr URL] submit -org hybrid-manyseg+sc -workloads gups,mcf -insns 200000 [-wait]
//	hvcctl [-addr URL] submit -sweep fig9 [-full] [-wait]
//	hvcctl [-addr URL] status <job-id>
//	hvcctl [-addr URL] watch <job-id>
//	hvcctl [-addr URL] timeline <job-id>
//	hvcctl [-addr URL] cancel <job-id>
//	hvcctl [-addr URL] jobs | orgs | experiments | health | metrics
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hybridvc/internal/buildinfo"
	"hybridvc/internal/service"
	"hybridvc/internal/service/client"
	"hybridvc/internal/stats"
)

// stdout is the command output sink, a variable so tests can capture it.
var stdout io.Writer = os.Stdout

func main() {
	addr := flag.String("addr", "http://localhost:8077", "hvcd base URL")
	version := buildinfo.Flag()
	flag.Usage = usage
	flag.Parse()
	buildinfo.HandleFlag(version, "hvcctl")

	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	c := client.New(*addr, nil)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(ctx, c, args)
	case "status":
		err = cmdStatus(ctx, c, args)
	case "watch":
		err = cmdWatch(ctx, c, args)
	case "timeline":
		err = cmdTimeline(ctx, c, args)
	case "cancel":
		err = cmdCancel(ctx, c, args)
	case "jobs":
		err = cmdJobs(ctx, c, args)
	case "orgs":
		err = cmdOrgs(ctx, c)
	case "experiments":
		err = cmdExperiments(ctx, c)
	case "health":
		err = cmdHealth(ctx, c)
	case "metrics":
		err = cmdMetrics(ctx, c)
	default:
		fmt.Fprintf(os.Stderr, "hvcctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hvcctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `hvcctl — client for the hvcd simulation daemon

usage: hvcctl [-addr URL] <command> [args]

commands:
  submit       submit a sim job (-org, -workloads, -insns, ...) or sweep (-sweep <experiment>)
  status       print one job's status and report (-json for compact machine output)
  watch        poll a job until it finishes, then print the report
  timeline     stream a job's interval time-series (NDJSON; -sse uses Server-Sent Events)
  cancel       cancel a job
  jobs         list jobs (-json for the full status array)
  orgs         list organizations and workloads
  experiments  list registered experiments
  health       daemon liveness (/healthz) and readiness (/readyz)
  metrics      daemon metrics (Prometheus text exposition)
`)
}

// cmdSubmit submits one job built from flags; -wait watches it to
// completion and prints the final report.
func cmdSubmit(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	org := fs.String("org", "", "organization (sim jobs; default hybrid-manyseg+sc)")
	wls := fs.String("workloads", "", "comma-separated workload names (default gups)")
	insns := fs.Uint64("insns", 0, "instructions per core (default 200000)")
	cores := fs.Int("cores", 0, "hardware cores (default 1)")
	llc := fs.Int("llc", 0, "LLC bytes override")
	seed := fs.Int64("seed", 0, "workload seed (default 1)")
	interval := fs.Uint64("interval", 0, "timeline interval in instructions (default 10000)")
	sweep := fs.String("sweep", "", "submit a sweep of this experiment instead of a sim job")
	full := fs.Bool("full", false, "sweep at full (paper-length) scale")
	wait := fs.Bool("wait", false, "wait for completion and print the result")
	fs.Parse(args)

	spec := service.JobSpec{}
	if *sweep != "" {
		spec.Kind = service.KindSweep
		spec.Experiment = *sweep
		if *full {
			spec.Scale = "full"
		}
	} else {
		spec.Org = *org
		spec.Instructions = *insns
		spec.Cores = *cores
		spec.LLCBytes = *llc
		spec.Seed = *seed
		spec.Interval = *interval
		for _, w := range strings.Split(*wls, ",") {
			if w = strings.TrimSpace(w); w != "" {
				spec.Workloads = append(spec.Workloads, w)
			}
		}
	}
	resp, err := c.SubmitWait(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "job %s  state=%s  cached=%v  deduped=%v  key=%.16s…\n",
		resp.ID, resp.State, resp.Cached, resp.Deduped, resp.Key)
	origin := ""
	if resp.OriginLineage != "" && resp.OriginLineage != resp.Lineage {
		origin = "  origin=" + resp.OriginLineage
	}
	fmt.Fprintf(stdout, "lineage %s%s\n", resp.Lineage, origin)
	if !*wait {
		return nil
	}
	return watchAndPrint(ctx, c, resp.ID)
}

func oneArg(args []string, cmd string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("%s needs exactly one job id", cmd)
	}
	return args[0], nil
}

func printStatus(st service.JobStatus) {
	b, _ := json.MarshalIndent(st, "", "  ")
	fmt.Fprintln(stdout, string(b))
}

func cmdStatus(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print compact single-line JSON (machine-readable)")
	fs.Parse(args)
	id, err := oneArg(fs.Args(), "status")
	if err != nil {
		return err
	}
	st, err := c.Job(ctx, id)
	if err != nil {
		return err
	}
	if *jsonOut {
		return json.NewEncoder(stdout).Encode(st)
	}
	printStatus(st)
	return nil
}

func watchAndPrint(ctx context.Context, c *client.Client, id string) error {
	st, err := c.Watch(ctx, id, 100*time.Millisecond)
	if err != nil {
		return err
	}
	printStatus(st)
	if st.State != service.StateDone {
		return fmt.Errorf("job %s finished %s: %s", id, st.State, st.Error)
	}
	return nil
}

func cmdWatch(ctx context.Context, c *client.Client, args []string) error {
	id, err := oneArg(args, "watch")
	if err != nil {
		return err
	}
	return watchAndPrint(ctx, c, id)
}

func cmdTimeline(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	sse := fs.Bool("sse", false, "stream as Server-Sent Events instead of NDJSON")
	resume := fs.Int("resume", -1, "with -sse, resume after this interval index")
	fs.Parse(args)
	id, err := oneArg(fs.Args(), "timeline")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	print := func(iv stats.Interval) error { return enc.Encode(iv) }
	if *sse {
		return c.TimelineSSE(ctx, id, *resume, true, print)
	}
	return c.Timeline(ctx, id, true, print)
}

func cmdCancel(ctx context.Context, c *client.Client, args []string) error {
	id, err := oneArg(args, "cancel")
	if err != nil {
		return err
	}
	if err := c.Cancel(ctx, id); err != nil {
		return err
	}
	fmt.Printf("job %s canceling\n", id)
	return nil
}

func cmdJobs(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("jobs", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print the full JobStatus array as JSON")
	fs.Parse(args)
	jobs, err := c.Jobs(ctx)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(jobs)
	}
	for _, j := range jobs {
		kind := j.Spec.Kind
		what := j.Spec.Org
		if kind == service.KindSweep {
			what = j.Spec.Experiment
		}
		from := ""
		if j.Provenance != "" {
			from = " from=" + j.Provenance
		}
		fmt.Fprintf(stdout, "%-8s %-9s %-6s %-18s cached=%-5v intervals=%d%s\n",
			j.ID, j.State, kind, what, j.Cached, j.Intervals, from)
	}
	return nil
}

func cmdOrgs(ctx context.Context, c *client.Client) error {
	cat, err := c.Orgs(ctx)
	if err != nil {
		return err
	}
	fmt.Println("organizations:")
	for _, o := range cat.Organizations {
		virt := ""
		if o.Virtualized {
			virt = " (virtualized)"
		}
		fmt.Printf("  %s%s\n", o.Name, virt)
	}
	fmt.Println("workloads:")
	for _, w := range cat.Workloads {
		fmt.Printf("  %-11s %6.1f MiB  %d proc(s)  %.12s…\n",
			w.Name, float64(w.Bytes)/(1<<20), w.Procs, w.Digest)
	}
	return nil
}

func cmdExperiments(ctx context.Context, c *client.Client) error {
	exps, err := c.Experiments(ctx)
	if err != nil {
		return err
	}
	for _, e := range exps {
		fmt.Printf("%-14s %s\n", e.Name, e.Description)
	}
	return nil
}

func cmdHealth(ctx context.Context, c *client.Client) error {
	h, err := c.Health(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("healthz: status=%s version=%q jobs=%d draining=%v\n", h.Status, h.Version, h.Jobs, h.Draining)
	r, err := c.Ready(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("readyz:  status=%s draining=%v\n", r.Status, r.Draining)
	return nil
}

// cmdMetrics prints the daemon's Prometheus text exposition.
func cmdMetrics(ctx context.Context, c *client.Client) error {
	b, err := c.MetricsProm(ctx)
	if err != nil {
		return err
	}
	_, err = stdout.Write(b)
	return err
}
