// Command bench is the repository's benchmark: it builds the real adrdedupd,
// generates every input from a seed before any clock starts, drives the
// workloads of BENCHMARK.json against a child process, checks that what came
// back is correct, and prints every metric by name with its unit. See
// README.md.
//
// Usage (from the checkout root, through the wrapper that builds it):
//
//	bash bench/run.sh run       [-workload all] [-seed 1] [-seconds 10] [-reps 1] [-quick] [-out FILE]
//	bash bench/run.sh trace     same flags; adds the in-process traced replay and prints per-layer metrics
//	bash bench/run.sh compare   A.json B.json
//	bash bench/run.sh selfcheck [-seed 1] [-seconds 10] [-quick]
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1   (one JSON line last, for the driver)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"adrdedup/internal/serve"
)

func main() {
	args := os.Args[1:]
	sub := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	var err error
	switch sub {
	case "run":
		err = runMain(args, false)
	case "trace":
		err = runMain(args, true)
	case "compare":
		err = compareMain(args)
	case "selfcheck":
		err = selfcheckMain(args)
	case "sut-batch":
		err = sutBatchMain(args)
	default:
		err = fmt.Errorf("unknown command %q (want run, trace, compare or selfcheck)", sub)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		var ee *exitError
		if errors.As(err, &ee) {
			os.Exit(ee.code)
		}
		os.Exit(1)
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64, unit string) { m[name] = metricValue{v, unit} }

// endToEnd lists the end-to-end metric names, in print order.
var endToEnd = []string{"reports_per_s", "req_p50_ms", "slo_met_share", "cpu_s_per_kreport", "peak_rss_mb", "setup_s"}

// lagLimit is how late the open-loop generator may run at its 95th percentile
// before the run stops describing the schedule it claims.
const lagLimit = 10 * time.Millisecond

// runMeta records where and how a result file was produced.
type runMeta struct {
	GitSHA     string  `json:"gitSHA"`
	GoVersion  string  `json:"goVersion"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpuModel"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Trace      bool    `json:"trace"`
	Time       string  `json:"time"`
}

// workloadResult is one run of one workload.
type workloadResult struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Samples is the number of requests behind the latency percentiles;
	// MeasuredS the wall seconds of the measured phase.
	Samples   int     `json:"samples"`
	MeasuredS float64 `json:"measuredS"`
	// Comparable is false for quick runs and for open-loop runs whose
	// generator lagged; Notes say why.
	Comparable bool      `json:"comparable"`
	Notes      []string  `json:"notes,omitempty"`
	Metrics    metricSet `json:"metrics"`
}

type resultFile struct {
	Meta    runMeta          `json:"meta"`
	Results []workloadResult `json:"results"`
}

// env is what every run needs from the host.
type env struct {
	root, daemonBin, outDir string
	meta                    runMeta
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	if e.daemonBin, err = buildDaemon(root); err != nil {
		return nil, err
	}
	e.meta = runMeta{
		GitSHA: gitSHA(root), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(), Time: time.Now().UTC().Format(time.RFC3339),
	}
	return e, nil
}

func gitSHA(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func runMain(args []string, traceDefault bool) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 0, "measured seconds per phase (default 10, or 1 with -quick)")
	trace := fs.Int("trace", 0, "1 adds the traced in-process replay and reports per-layer metrics instead of end-to-end ones")
	quick := fs.Bool("quick", false, "smoke run at one tenth size; checks on, metrics not comparable")
	reps := fs.Int("reps", 1, "repetitions per workload, each with the next seed")
	out := fs.String("out", "", "result file (default bench/out/<run|trace>_seed<seed>.json)")
	if traceDefault {
		*trace = 1
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = 10
		if *quick {
			*seconds = 1
		}
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	e, err := newEnv()
	if err != nil {
		return err
	}
	opts := runOpts{window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, quick: *quick}
	e.meta.Seed, e.meta.Seconds, e.meta.Quick, e.meta.Trace = *seed, *seconds, *quick, opts.trace

	file, err := runSet(e, selected, *seed, *reps, opts)
	if *out == "" {
		kind := "run"
		if opts.trace {
			kind = "trace"
		}
		*out = filepath.Join(e.outDir, fmt.Sprintf("%s_seed%d.json", kind, *seed))
	}
	if err != nil {
		return err
	}
	if err := writeJSON(*out, file); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", *out)
	if *reps > 1 {
		printSpread(file)
	}
	if len(file.Results) == 1 {
		// The driver reads the last line of standard output.
		r := file.Results[0]
		line, err := json.Marshal(struct {
			Correct   bool      `json:"correct"`
			Attempted int       `json:"attempted"`
			Failed    int       `json:"failed"`
			Metrics   metricSet `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// runSet runs each workload reps times, rep r with seed+r, and stops at the
// first run whose output check fails: a wrong answer prints no metrics.
func runSet(e *env, selected []workload, seed int64, reps int, opts runOpts) (*resultFile, error) {
	file := &resultFile{Meta: e.meta}
	for _, w := range selected {
		if opts.quick {
			w = w.quick()
		}
		for r := 0; r < reps; r++ {
			res, err := runWorkload(e, w, seed+int64(r), opts)
			if err != nil {
				return file, fmt.Errorf("%s seed %d: %w", w.Name, seed+int64(r), err)
			}
			printResult(res, opts.trace)
			file.Results = append(file.Results, *res)
		}
	}
	return file, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type runOpts struct {
	window time.Duration
	trace  bool
	quick  bool
}

// arrivalSeed fixes the open loop's arrival pattern. The pattern is part of
// the workload, like a recorded trace: --seed changes what the requests
// carry, not when they are due. Two hundred arrivals are too few for their
// bunching to average out, and a schedule drawn afresh per seed moved
// req_p95_ms by half its value from seed to seed.
const arrivalSeed = 1

// setupLaunches is how many times the child is started to measure setup_s;
// the median is reported and the last child serves the measured phase.
const setupLaunches = 3

// runWorkload generates the inputs, runs the load phase against a child,
// checks the outputs, and then either computes the end-to-end metrics or, with
// opts.trace, runs the traced replay and computes the per-layer ones.
func runWorkload(e *env, w workload, seed int64, opts runOpts) (*workloadResult, error) {
	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "bench: %s seed %d: %s\n", w.Name, seed, fmt.Sprintf(format, a...))
	}
	in, err := generateInputs(w, seed, w.numRequests(opts.window))
	if err != nil {
		return nil, err
	}
	logf("generated %d requests of %d reports", len(in.requests), w.PerRequest)

	launches := setupLaunches
	if opts.trace {
		launches = 1 // setup_s is not reported from a traced run
	}
	lp, err := runLoadPhase(e, w, in, opts.window, launches, opts.trace)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{Workload: w.Name, Seed: seed, Comparable: !opts.quick, Metrics: metricSet{}}
	res.Attempted = len(lp.res.outcomes)
	res.Failed = lp.res.count(func(o outcome) bool { return !o.ok })
	res.MeasuredS = lp.res.wall.Seconds()
	if res.Attempted == 0 {
		return nil, errors.New("no request was attempted")
	}
	for _, o := range lp.res.outcomes {
		if !o.ok {
			logf("request %d failed: %s", o.index, o.err)
		}
	}
	if opts.quick {
		res.Notes = append(res.Notes, "quick run: one tenth size, not comparable")
	}
	logf("load phase: %d requests in %.2fs, %d failed", res.Attempted, res.MeasuredS, res.Failed)

	got := collectServed(in, lp.res)
	if err := lp.checkCounters(w, got); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	var lats, lags []int64
	var withinSLO int
	for _, o := range lp.res.outcomes {
		if o.ok {
			lats = append(lats, int64(o.latency))
			lags = append(lags, int64(o.lag))
			if o.latency <= w.SLO {
				withinSLO++
			}
		}
	}
	lats, lags = sortedCopy(lats), sortedCopy(lags)
	res.Samples = len(lats)
	p95v, p95ok := p95(lats)
	if opts.trace && !p95ok {
		res.Notes = append(res.Notes, fmt.Sprintf("loadgen.req_p95_ms rests on %d samples, fewer than %d", len(lats), p95MinSamples))
	}
	lagP95 := time.Duration(percentile(lags, 0.95))
	if w.Open && lagP95 > lagLimit {
		res.Comparable = false
		res.Notes = append(res.Notes, fmt.Sprintf("generator lag p95 %.1f ms exceeds %v: the run did not keep its schedule", ms(lagP95), lagLimit))
	}
	if !w.Open && len(lp.res.outcomes) == len(in.requests) {
		res.Notes = append(res.Notes, "the pre-generated traffic ran out before the window closed")
	}
	reports := float64(len(got.reports))

	if !opts.trace {
		if err := checkAgainstReplay(w, got); err != nil {
			return nil, fmt.Errorf("output check: %w", err)
		}
		res.Correct = res.Failed == 0
		m := res.Metrics
		m.set("reports_per_s", reports/lp.res.wall.Seconds(), "reports/s")
		m.set("req_p50_ms", ms(time.Duration(percentile(lats, 0.5))), "ms")
		m.set("slo_met_share", float64(withinSLO)/float64(res.Attempted), "share")
		m.set("cpu_s_per_kreport", lp.cpu.Seconds()/(reports/1000), "s")
		m.set("peak_rss_mb", lp.peakRSSMB, "MB")
		m.set("setup_s", medianDur(lp.setups).Seconds(), "s")
		return res, nil
	}

	tr, err := runTrace(w, seed, in, opts.window)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	res.Correct = res.Failed == 0
	m := res.Metrics
	tr.layerMetrics(m)
	reqP50 := ms(time.Duration(percentile(lats, 0.5)))
	var wait float64
	if w.Daemon {
		wait = reqP50 - m["trace.service_ms_p50"].Value
	}
	m.set("serve.wait_ms_p50", wait, "ms")
	m.set("serve.rejected_429", float64(lp.stats.QueueFullRejects), "count")
	m.set("serve.queue_depth_max", float64(lp.queueDepthMax), "count")
	m.set("loadgen.req_p50_ms", reqP50, "ms")
	m.set("loadgen.req_p95_ms", ms(time.Duration(p95v)), "ms")
	m.set("loadgen.lag_p95_ms", ms(lagP95), "ms")
	m.set("loadgen.sent", float64(res.Attempted), "count")
	m.set("loadgen.ok", float64(res.Attempted-res.Failed), "count")
	m.set("loadgen.failed", float64(res.Failed), "count")
	m.set("loadgen.throttled", float64(lp.res.count(func(o outcome) bool { return o.throttled > 0 })), "count")
	recall, precision := quality(in, got)
	m.set("quality.dup_recall", recall, "share")
	m.set("quality.dup_precision", precision, "share")
	spanFile := filepath.Join(e.outDir, fmt.Sprintf("trace_%s.json", w.Name))
	if err := writeSpans(spanFile, e.meta, w, tr.spans); err != nil {
		return nil, err
	}
	printSelfTimes(tr.spans, spanFile)
	return res, nil
}

// loadPhase is what the load phase observed from outside the child.
type loadPhase struct {
	res    *loadResult
	setups []time.Duration
	// cpu is the child's user+system time over the measured phase only.
	cpu           time.Duration
	peakRSSMB     float64
	stats         serve.Stats // daemon workloads
	queueDepthMax int
}

// runLoadPhase starts the system under test launches times, keeping the last,
// and drives the workload at it for window.
func runLoadPhase(e *env, w workload, in *inputs, window time.Duration, launches int, pollQueue bool) (*loadPhase, error) {
	lp := &loadPhase{}
	start := func() (*child, error) { return startDaemon(e.daemonBin, w) }
	if !w.Daemon {
		job := batchJob{Bootstrap: w.bootstrapConfig(), WindowNS: int64(window)}
		for _, rq := range in.requests {
			job.Batches = append(job.Batches, rq.reports)
		}
		jobFile := filepath.Join(e.outDir, fmt.Sprintf("job_%s_%d.json", w.Name, os.Getpid()))
		data, err := json.Marshal(job)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jobFile, data, 0o644); err != nil {
			return nil, err
		}
		defer os.Remove(jobFile)
		start = func() (*child, error) { return startBatchChild(jobFile) }
	}
	var c *child
	for i := 0; i < launches; i++ {
		if c != nil {
			c.kill()
		}
		var err error
		if c, err = start(); err != nil {
			return nil, err
		}
		lp.setups = append(lp.setups, c.setup)
	}
	defer c.kill() // no-op after a clean stop

	cpu0, err := procCPU(c.pid())
	if err != nil {
		return nil, err
	}
	if w.Daemon {
		cfg := loadConfig{url: c.url + w.Path, conns: w.conns(e.meta.NProc), window: window}
		for _, rq := range in.requests {
			cfg.bodies = append(cfg.bodies, rq.body)
		}
		if w.Open {
			cfg.schedule = poissonSchedule(arrivalSeed, len(cfg.bodies), window)
		}
		stopPoll := func() {}
		if pollQueue {
			stopPoll = pollQueueDepth(c.url, &lp.queueDepthMax)
		}
		lp.res = runLoad(context.Background(), cfg)
		stopPoll()
	} else if lp.res, err = runBatchChild(c); err != nil {
		return nil, err
	}
	cpu1, err := procCPU(c.pid())
	if err != nil {
		return nil, err
	}
	lp.cpu = cpu1 - cpu0
	if lp.peakRSSMB, err = procPeakRSSMB(c.pid()); err != nil {
		return nil, err
	}
	if w.Daemon {
		if lp.stats, err = daemonStats(c.url); err != nil {
			return nil, err
		}
	}
	return lp, c.stop()
}

// pollQueueDepth samples the daemon's ingest queue depth ten times a second
// until the returned stop function is called, keeping the maximum in *max.
func pollQueueDepth(baseURL string, max *int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if st, err := daemonStats(baseURL); err == nil && st.QueueDepth > *max {
					*max = st.QueueDepth
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// checkCounters holds the child's own accounting against the generator's:
// every report of a 2xx response was ingested exactly once and no batch failed
// inside the daemon.
func (lp *loadPhase) checkCounters(w workload, got served) error {
	for _, o := range lp.res.outcomes {
		if o.ok && w.Daemon && o.resp.Ingested != w.PerRequest {
			return fmt.Errorf("request %d: response says %d reports ingested, sent %d", o.index, o.resp.Ingested, w.PerRequest)
		}
		if o.ok && o.resp.Duplicates != len(o.resp.Matches) {
			return fmt.Errorf("request %d: response counts %d duplicates but lists %d", o.index, o.resp.Duplicates, len(o.resp.Matches))
		}
	}
	if !w.Daemon {
		return nil
	}
	if int(lp.stats.Ingested) != len(got.reports) {
		return fmt.Errorf("/v1/stats ingested %d, generator had %d reports accepted", lp.stats.Ingested, len(got.reports))
	}
	if lp.stats.FailedBatches != 0 {
		return fmt.Errorf("/v1/stats reports %d failed batches", lp.stats.FailedBatches)
	}
	if int(lp.stats.Scored) != got.scored {
		return fmt.Errorf("/v1/stats scored %d, responses add up to %d", lp.stats.Scored, got.scored)
	}
	return nil
}

func printResult(r *workloadResult, traced bool) {
	fmt.Printf("\n== %s (seed %d): %d requests attempted, %d failed, %d latency samples, measured %.2f s\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Samples, r.MeasuredS)
	names := endToEnd
	if traced {
		names = nil
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Printf("  %-36s %14.4f %s\n", n, v.Value, v.Unit)
	}
	for _, note := range r.Notes {
		fmt.Printf("  note: %s\n", note)
	}
}

// printSelfTimes prints, per span name, total and self time over the trace.
func printSelfTimes(spans []span, file string) {
	total := make(map[string]time.Duration)
	count := make(map[string]int)
	for _, s := range spans {
		total[s.Name] += time.Duration(s.EndNS - s.StartNS)
		count[s.Name]++
	}
	self := selfTimes(spans)
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("\n  spans (%s)\n  %-24s %8s %12s %12s\n", file, "name", "count", "total ms", "self ms")
	for _, n := range names {
		fmt.Printf("  %-24s %8d %12.2f %12.2f\n", n, count[n], ms(total[n]), ms(self[n]))
	}
}
