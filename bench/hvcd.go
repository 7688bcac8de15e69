package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"hybridvc"
	"hybridvc/internal/service"
	"hybridvc/internal/service/client"
	"hybridvc/internal/sim"
	"hybridvc/internal/stats"
	"hybridvc/internal/telemetry"
)

// hvcdJob is the simulation behind every fresh hvcd-mixed job: hvcd's
// default spec (hybrid-manyseg+sc on gups with a 10k-instruction
// timeline) with a smaller instruction budget. The same workload value
// recomputes seeded jobs in-process for the correctness check.
var hvcdJob = simWorkload{
	load:     "gups",
	cores:    1,
	insns:    50_000,
	interval: timelineInterval,
}

const (
	// hvcdClients is the number of closed-loop clients, one connection
	// each.
	hvcdClients = 2
	// freshPerClientSecond sizes phase 1: each client runs this many fresh
	// jobs (and as many repeats) per second of the measuring window.
	freshPerClientSecond = 18
	// startsPerPhase is how many times the daemon is started before each
	// phase to measure set-up time; the last start serves the phase.
	startsPerPhase = 21
	// readyPoll is the pause between readiness probes while hvcd starts.
	readyPoll = 50 * time.Microsecond
	// recomputed is how many seeded fresh jobs are checked against an
	// in-process recomputation.
	recomputed = 8
	// hvcdDeadline bounds the whole workload, so a wedged daemon fails
	// the run instead of hanging it.
	hvcdDeadline = 150 * time.Second
)

// daemon is one running hvcd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	exited  chan struct{}
	waitErr error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon spawns hvcd with default flags apart from its listen
// address and the directories it writes, and returns once /readyz answers
// ready, with the time that took.
func startDaemon(ctx context.Context, bin, dir string, log *os.File) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr,
		"-store", filepath.Join(dir, "store"), "-spool", filepath.Join(dir, "spool"))
	cmd.Stdout, cmd.Stderr = log, log
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}

	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start hvcd: %w", err)
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	probe := client.New(d.base, &http.Client{Timeout: time.Second})
	for {
		// A refused dial costs far less than an HTTP probe, so /readyz is
		// asked only once the listener accepts.
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			if r, err := probe.Ready(ctx); err == nil && r.Status == "ready" {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("hvcd exited before it was ready: %v", d.waitErr)
		case <-ctx.Done():
			d.kill()
			return nil, 0, fmt.Errorf("hvcd not ready: %w", ctx.Err())
		default:
		}
		// A Go timer would round the pause up to about a millisecond, a
		// quarter of a start, and make start times jump by whole polls. An
		// interrupted nanosleep only shortens one pause.
		_ = syscall.Nanosleep(&syscall.Timespec{Nsec: readyPoll.Nanoseconds()}, nil)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("hvcd did not drain within 30s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// peakRSS is the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// scrape reads the daemon's Prometheus exposition after the repository's
// own linter has accepted it, so the benchmark's reader sees only valid
// input.
func scrape(ctx context.Context, base string) (promText, error) {
	b, err := client.New(base, nil).MetricsProm(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if err := telemetry.Lint(b); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return parseProm(b)
}

// phaseMetrics is the change in the daemon's metrics across one phase.
type phaseMetrics struct{ before, after promText }

func (p phaseMetrics) delta(name string) float64 {
	a, _ := p.after.value(name)
	b, _ := p.before.value(name)
	return a - b
}

// hist returns a latency histogram's sum (ms) and count over the phase.
func (p phaseMetrics) hist(family string) (sumMS, count float64) {
	as, ac, _ := p.after.histogram(family)
	bs, bc, _ := p.before.histogram(family)
	return (as - bs) * 1e3, ac - bc
}

// opResult is one client operation: submit, follow the timeline until
// the job is terminal, fetch the report.
type opResult struct {
	key                        string
	start                      time.Time
	submit, wait, fetch, total time.Duration
	report                     []byte
	provenance                 string
}

// do runs one operation and checks the job ended done with a timeline
// that sums to its report.
func do(ctx context.Context, cl *client.Client, spec service.JobSpec) (r opResult, err error) {
	r.start = time.Now()
	sub, err := cl.SubmitWaitBackoff(ctx, spec, client.Backoff{MaxElapsed: 10 * time.Second})
	if err != nil {
		return r, fmt.Errorf("submit: %w", err)
	}
	r.key = sub.Key
	t1 := time.Now()
	var ivs []stats.Interval
	if err := cl.Timeline(ctx, sub.ID, true, func(iv stats.Interval) error {
		ivs = append(ivs, iv)
		return nil
	}); err != nil {
		return r, fmt.Errorf("timeline %s: %w", sub.ID, err)
	}
	t2 := time.Now()
	st, err := cl.Job(ctx, sub.ID)
	if err != nil {
		return r, fmt.Errorf("fetch %s: %w", sub.ID, err)
	}
	t3 := time.Now()
	r.submit, r.wait, r.fetch, r.total = t1.Sub(r.start), t2.Sub(t1), t3.Sub(t2), t3.Sub(r.start)
	r.report, r.provenance = st.Report, st.Provenance
	if st.State != service.StateDone {
		return r, fmt.Errorf("job %s ended %s: %s", sub.ID, st.State, st.Error)
	}
	var rep sim.Report
	if err := json.Unmarshal(st.Report, &rep); err != nil {
		return r, fmt.Errorf("job %s report: %w", sub.ID, err)
	}
	return r, checkIntervals(ivs, rep.Instructions, rep.Cycles)
}

// hvcdClient is one closed-loop caller with its own connection. It
// repeats only keys it has itself completed, so its operation sequence is
// fixed by the seed.
type hvcdClient struct {
	id    int
	cl    *client.Client
	rng   *rand.Rand
	fresh []service.JobSpec
	// plan lists phase 1 in order: true for a fresh job, false for a
	// repeat of a key this client completed earlier.
	plan []bool
	// done lists the fresh specs completed so far; served holds the bytes
	// first served for each key.
	done   []service.JobSpec
	served map[string][]byte

	results map[string][]opResult // by class: fresh, hit, disk
	errs    []error
	spans   []span
}

func newHvcdClient(id int, seed int64, nFresh int) *hvcdClient {
	c := &hvcdClient{
		id:      id,
		rng:     rand.New(rand.NewSource(seed*7919 + int64(id))),
		served:  map[string][]byte{},
		results: map[string][]opResult{},
	}
	for i := 0; i < nFresh; i++ {
		c.fresh = append(c.fresh, service.JobSpec{
			Instructions: hvcdJob.insns,
			Seed:         seed*1_000_000 + int64(id)*100_000 + int64(i) + 1,
		})
		c.plan = append(c.plan, true, false)
	}
	c.rng.Shuffle(len(c.plan), func(i, j int) { c.plan[i], c.plan[j] = c.plan[j], c.plan[i] })
	for i, fresh := range c.plan { // the first operation must be fresh
		if fresh {
			c.plan[0], c.plan[i] = c.plan[i], c.plan[0]
			break
		}
	}
	return c
}

// connect points the client at a daemon life with one connection.
func (c *hvcdClient) connect(base string) {
	c.cl = client.New(base, &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
	}})
}

func (c *hvcdClient) record(ctx context.Context, class, phase string, i int, spec service.JobSpec) {
	r, err := do(ctx, c.cl, spec)
	if err == nil && class != "fresh" && !bytes.Equal(r.report, c.served[r.key]) {
		err = fmt.Errorf("report differs from the bytes first served for the key at byte %d",
			firstDiff(string(r.report), string(c.served[r.key])))
	}
	if err != nil {
		c.errs = append(c.errs, fmt.Errorf("client=%d phase=%s op=%d seed=%d key=%s: %w",
			c.id, phase, i, spec.Seed, r.key, err))
		return
	}
	if class == "fresh" {
		c.served[r.key] = r.report
		c.done = append(c.done, spec)
	}
	c.results[class] = append(c.results[class], r)
	trace := fmt.Sprintf("c%d/%s/%d", c.id, phase, i)
	sub := r.start.Add(r.submit)
	c.spans = append(c.spans,
		newSpan(trace, "client.op", "", r.start, r.total, 0),
		newSpan(trace, "client.submit", "client.op", r.start, r.submit, 0),
		newSpan(trace, "client.wait", "client.op", sub, r.wait, 0),
		newSpan(trace, "client.fetch", "client.op", sub.Add(r.wait), r.fetch, 0))
}

func (c *hvcdClient) phase1(ctx context.Context) {
	next := 0
	for i, fresh := range c.plan {
		switch {
		case fresh:
			c.record(ctx, "fresh", "1", i, c.fresh[next])
			next++
		case len(c.done) == 0:
			c.errs = append(c.errs, fmt.Errorf("client=%d phase=1 op=%d: no completed key to repeat", c.id, i))
		default:
			c.record(ctx, "hit", "1", i, c.done[c.rng.Intn(len(c.done))])
		}
	}
}

// phase2 resubmits every key the client completed, in seeded order.
func (c *hvcdClient) phase2(ctx context.Context) {
	keys := append([]service.JobSpec(nil), c.done...)
	c.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i, spec := range keys {
		c.record(ctx, "disk", "2", i, spec)
	}
}

// runClients runs one phase on every client concurrently and returns its
// wall time.
func runClients(clients []*hvcdClient, phase func(*hvcdClient)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *hvcdClient) {
			defer wg.Done()
			phase(c)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// startLives starts the daemon startsPerPhase times on the same
// directory, stopping all but the last, and returns the last with the
// median time to ready.
func startLives(ctx context.Context, bin, dir string, log *os.File) (*daemon, float64, error) {
	var ready []float64
	for i := 0; ; i++ {
		d, t, err := startDaemon(ctx, bin, dir, log)
		if err != nil {
			return nil, 0, err
		}
		ready = append(ready, t.Seconds())
		if i == startsPerPhase-1 {
			return d, median(ready), nil
		}
		// hvcd answers /readyz just before it installs its SIGTERM
		// handler, so a life stopped at once can die of the signal instead
		// of draining. It served nothing, so that is a clean stop here.
		if err := d.stop(); err != nil && !diedOf(err, syscall.SIGTERM) {
			return nil, 0, fmt.Errorf("stop hvcd: %w", err)
		}
	}
}

// diedOf reports whether a process's wait error says a signal killed it.
func diedOf(err error, sig syscall.Signal) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == sig
}

// phaseResult is one phase as the daemon and the clients saw it.
type phaseResult struct {
	phaseMetrics
	wall  time.Duration
	ready float64 // median seconds from spawn to ready
	rss   float64 // VmHWM of the serving life, MiB
}

// servePhase starts the daemon startsPerPhase times, runs one client
// phase against the last life with a scrape before and after, and drains
// that life.
func servePhase(ctx context.Context, bin, dir string, log *os.File, clients []*hvcdClient, phase func(*hvcdClient)) (phaseResult, error) {
	var res phaseResult
	d, ready, err := startLives(ctx, bin, dir, log)
	if err != nil {
		return res, err
	}
	res.ready = ready
	res.before, err = scrape(ctx, d.base)
	if err == nil {
		for _, c := range clients {
			c.connect(d.base)
		}
		res.wall = runClients(clients, phase)
		res.after, err = scrape(ctx, d.base)
	}
	if err == nil {
		res.rss, err = d.peakRSS()
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	return res, err
}

// runHvcd runs the hvcd-mixed workload against the daemon binary.
func runHvcd(bin string, seed int64, window time.Duration, traced bool) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), hvcdDeadline)
	defer cancel()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "hvcd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	log, err := os.Create(filepath.Join(dir, "hvcd.log"))
	if err != nil {
		return nil, err
	}
	defer log.Close()

	nFresh := max(1, int(window.Seconds()*freshPerClientSecond))
	clients := make([]*hvcdClient, hvcdClients)
	for i := range clients {
		clients[i] = newHvcdClient(i, seed, nFresh)
	}

	// Phase 1 runs on a cold daemon and an empty store; phase 2 on warm
	// restarts over the same store, so every key is served from disk.
	p1, err := servePhase(ctx, bin, dir, log, clients, func(c *hvcdClient) { c.phase1(ctx) })
	if err != nil {
		return nil, err
	}
	p2, err := servePhase(ctx, bin, dir, log, clients, func(c *hvcdClient) { c.phase2(ctx) })
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	class := map[string][]float64{}
	var submit, wait, fetch []float64
	provenance := map[string]int{}
	for _, c := range clients {
		for _, e := range c.errs {
			o.op(e)
		}
		for name, rs := range c.results {
			for _, r := range rs {
				o.op(nil)
				class[name] = append(class[name], ms(r.total))
				submit = append(submit, ms(r.submit))
				wait = append(wait, ms(r.wait))
				fetch = append(fetch, ms(r.fetch))
				provenance[r.provenance]++
			}
		}
		if traced {
			o.spans = append(o.spans, c.spans...)
		}
	}
	cases := recompute(o, clients, seed)

	fresh := class["fresh"]
	freshInsns := float64(len(fresh)) * float64(hvcdJob.totalInsns())
	o.set("sim_insts_per_s", ratio(freshInsns, p1.wall.Seconds()))
	o.set("setup_s", p1.ready+p2.ready)
	o.set("peak_rss_mb", max(p1.rss, p2.rss))
	o.set("fresh.p50_ms", median(fresh))
	o.set("fresh.tail_ms", addTail(o, "fresh", fresh))
	for _, name := range []string{"hit", "disk"} {
		o.addDetail(name+".p50_ms", "ms", median(class[name]))
		addTail(o, name, class[name])
	}
	phase1Ops := len(class["fresh"]) + len(class["hit"])
	o.addDetail("jobs_per_s", "ops/s", ratio(float64(phase1Ops), p1.wall.Seconds()))
	o.addDetail("setup.cold_s", "s", p1.ready)
	o.addDetail("setup.warm_s", "s", p2.ready)

	qwSum, _ := p1.hist("hvcd_queue_wait_seconds")
	exSum, _ := p1.hist("hvcd_execute_seconds")
	e2eSum, e2eN := p1.hist("hvcd_e2e_seconds")
	cs1, csn1 := p1.hist("hvcd_cache_serve_seconds")
	cs2, csn2 := p2.hist("hvcd_cache_serve_seconds")
	e2eMean := ratio(e2eSum, e2eN)
	csMean := ratio(cs1+cs2, csn1+csn2)
	cachedMean := mean(append(append([]float64(nil), class["hit"]...), class["disk"]...))
	freshMean := mean(fresh)
	o.addDetail("service.queue_wait_mean_ms", "ms", ratio(qwSum, e2eN))
	o.addDetail("service.execute_mean_ms", "ms", ratio(exSum, e2eN))
	o.addDetail("service.e2e_mean_ms", "ms", e2eMean)
	o.addDetail("service.cache_serve_mean_ms", "ms", csMean)
	o.addDetail("client.submit_mean_ms", "ms", mean(submit))
	o.addDetail("client.wait_mean_ms", "ms", mean(wait))
	o.addDetail("client.fetch_mean_ms", "ms", mean(fetch))
	o.addDetail("client.overhead_mean_ms", "ms", freshMean-e2eMean)

	o.set("service.queue_wait_share", ratio(qwSum, e2eSum))
	o.set("service.execute_share", ratio(exSum, e2eSum))
	o.set("service.cache_serve_share", ratio(csMean, cachedMean))
	o.set("client.overhead_share", ratio(freshMean-e2eMean, freshMean))
	o.set("client.hit_over_fresh", ratio(median(class["hit"]), median(fresh)))
	o.set("client.disk_hit_over_fresh", ratio(median(class["disk"]), median(fresh)))
	o.set("service.simulated", p1.delta("hvcd_simulated_total"))
	o.set("service.deduped", p1.delta("hvcd_deduped_total"))
	o.set("service.memory_hits", float64(provenance["memory"]))
	o.set("service.disk_hits", float64(provenance["disk"]))
	jobs, _ := p1.after.value("hvcd_jobs")
	records, _ := p1.after.value("hvcd_store_records")
	storeBytes, _ := p1.after.value("hvcd_store_bytes")
	o.set("service.jobs", jobs)
	o.set("store.writes", p1.delta("hvcd_store_writes_total"))
	o.set("store.records", records)
	o.set("store.bytes", storeBytes)

	if traced {
		hvcdJob.measureLayers(o, "hvcd-mixed", cases)
	}
	return o, nil
}

// recompute reruns seeded fresh jobs in-process and checks each against
// the report hvcd first served for it. It returns the runs as layer cases.
func recompute(o *outcome, clients []*hvcdClient, seed int64) []simCase {
	rng := rand.New(rand.NewSource(seed))
	var cases []simCase
	for i := 0; i < recomputed; i++ {
		c := clients[i%len(clients)]
		if len(c.done) == 0 {
			continue
		}
		spec := c.done[rng.Intn(len(c.done))]
		if err := spec.Normalize(); err != nil {
			o.op(fmt.Errorf("hvcd-mixed: recompute seed=%d: %w", spec.Seed, err))
			continue
		}
		key := spec.CacheKey()
		r, err := hvcdJob.runOrg(hvcdJob.config(hybridvc.Organization(spec.Org), spec.Seed), false)
		if err == nil {
			err = sameJSON(c.served[key], r.report)
		}
		if err != nil {
			o.op(fmt.Errorf("hvcd-mixed: recompute seed=%d key=%s: %w", spec.Seed, key, err))
			continue
		}
		o.op(nil)
		cases = append(cases, simCase{org: hybridvc.Organization(spec.Org), seed: spec.Seed, ref: r.report, untracedS: r.run.Seconds()})
	}
	return cases
}

// sameJSON compares two JSON documents ignoring insignificant whitespace:
// hvcd re-indents the report inside its job status.
func sameJSON(served []byte, local string) error {
	var a, b bytes.Buffer
	if err := json.Compact(&a, served); err != nil {
		return fmt.Errorf("served report: %w", err)
	}
	if err := json.Compact(&b, []byte(local)); err != nil {
		return fmt.Errorf("recomputed report: %w", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("served report differs from the in-process recomputation at byte %d",
			firstDiff(a.String(), b.String()))
	}
	return nil
}
