// Command experiments regenerates the tables and figures of Wang & Karimi
// (EDBT 2016) on the synthetic TGA-profile corpus. Each subcommand prints
// the rows or series of one exhibit; "all" runs everything.
//
// Usage:
//
//	experiments [flags] <table1|table2|table3|fig5|fig6|fig7|fig8|fig9|fig10|fig11|ablation|loadbalance|speculation|recovery|candidates|spill|all>
//
// Pair counts default to one tenth of the paper's (100k-500k instead of
// 1M-5M); -scale multiplies them back up (-scale 10 reproduces paper-scale
// counts, at a correspondingly longer runtime). Reported execution times are
// virtual cluster times; see DESIGN.md §6.
//
// -workers sizes the shared experiment cluster's task pool, the number of
// stage tasks computing at once (default NumCPU); results, committed
// counters and virtual times do not depend on it, only host wall-clock does.
// -cpuprofile and -memprofile write runtime/pprof profiles of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"adrdedup/internal/cluster"
	"adrdedup/internal/eval"
	"adrdedup/internal/experiments"
	"adrdedup/internal/prof"
)

func main() {
	scale := flag.Float64("scale", 1, "multiplier on pair-set sizes (10 = paper scale)")
	seed := flag.Int64("seed", 1, "corpus and sampling seed")
	quick := flag.Bool("quick", false, "reduced corpus and pair counts for smoke runs")
	tracePath := flag.String("trace", "", "write a JSON stage/task trace event log to this file and print a per-stage summary to stderr")
	metricsPath := flag.String("metrics-out", "", "write the final cluster metrics snapshot as JSON to this file")
	workers := flag.Int("workers", 0, "engine pool size: stage tasks computing at once (0 = NumCPU)")
	cpuProfile := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a runtime/pprof heap profile at the end of the run to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] <exhibit>\n")
		fmt.Fprintf(os.Stderr, "exhibits: table1 table2 table3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 ablation loadbalance speculation recovery candidates spill all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	profile, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	r := &runner{
		scale: *scale, seed: *seed, quick: *quick,
		trace: *tracePath, metricsOut: *metricsPath,
		workers: *workers,
	}
	runErr := r.run(flag.Arg(0))
	// Export observability artifacts even after a failed exhibit: a trace
	// of the failing run is exactly what's needed to debug it.
	artErr := r.writeArtifacts()
	profErr := profile.Stop()
	for _, e := range []error{artErr, profErr, runErr} {
		if e != nil {
			fmt.Fprintln(os.Stderr, "experiments:", e)
		}
	}
	if artErr != nil || profErr != nil || runErr != nil {
		os.Exit(1)
	}
}

type runner struct {
	scale      float64
	seed       int64
	quick      bool
	trace      string
	metricsOut string
	workers    int
	env        *experiments.Env
}

// writeArtifacts exports the trace event log (spanning every engine reset of
// the run) and the final cluster's metrics snapshot, if requested.
func (r *runner) writeArtifacts() error {
	if r.env == nil {
		return nil
	}
	cl := r.env.Ctx.Cluster()
	if r.trace != "" {
		f, err := os.Create(r.trace)
		if err != nil {
			return err
		}
		if err := cl.Tracer().WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", r.trace, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "\ntrace: %d events written to %s (%d dropped)\n",
			cl.Tracer().Len(), r.trace, cl.Tracer().Dropped())
		fmt.Fprintln(os.Stderr, "per-stage summary (current engine, most recent 512 stages):")
		cluster.WriteStageSummary(os.Stderr, cl.StageHistory())
	}
	if r.metricsOut != "" {
		f, err := os.Create(r.metricsOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cl.Metrics().Snapshot()); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", r.metricsOut, err)
		}
		return f.Close()
	}
	return nil
}

func (r *runner) run(exhibit string) error {
	switch exhibit {
	case "table1", "table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "ablation", "loadbalance", "speculation", "recovery", "candidates", "spill":
		return r.dispatch(exhibit)
	case "all":
		for _, e := range []string{"table1", "table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "ablation", "loadbalance", "speculation", "recovery", "candidates", "spill"} {
			fmt.Printf("==================== %s ====================\n", e)
			if err := r.dispatch(e); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown exhibit %q", exhibit)
	}
}

// n scales a default pair count.
func (r *runner) n(base int) int {
	if r.quick {
		base /= 10
	}
	return int(float64(base) * r.scale)
}

func (r *runner) environment() (*experiments.Env, error) {
	if r.env != nil {
		return r.env, nil
	}
	corpus := experiments.DefaultCorpus(r.seed)
	if r.quick {
		corpus = experiments.SmallCorpus(r.seed)
	}
	clusterCfg := experiments.DefaultCluster()
	clusterCfg.Trace = r.trace != ""
	clusterCfg.RealWorkers = r.workers
	start := time.Now()
	env, err := experiments.NewEnv(experiments.EnvConfig{
		Cluster: clusterCfg,
		Corpus:  corpus,
		Seed:    r.seed,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("corpus: %d reports, %d duplicate pairs (prepared in %v)\n\n",
		len(env.Corpus.Reports), len(env.Corpus.Duplicates), time.Since(start).Round(time.Millisecond))
	r.env = env
	return env, nil
}

func (r *runner) dispatch(exhibit string) error {
	switch exhibit {
	case "table2":
		experiments.Table2(os.Stdout)
		return nil
	case "table1":
		env, err := r.environment()
		if err != nil {
			return err
		}
		return experiments.Table1(os.Stdout, env.Corpus)
	case "table3":
		env, err := r.environment()
		if err != nil {
			return err
		}
		res, err := experiments.Table3(env.Corpus)
		if err != nil {
			return err
		}
		experiments.WriteTable3(os.Stdout, res)
		return nil
	case "fig5":
		return r.fig5()
	case "fig6":
		return r.fig6()
	case "fig7", "fig8":
		return r.fig7(exhibit == "fig8")
	case "fig9":
		return r.fig9()
	case "fig10":
		return r.fig10()
	case "fig11":
		return r.fig11()
	case "ablation":
		return r.ablation()
	case "loadbalance":
		return r.loadbalance()
	case "speculation":
		return r.speculation()
	case "recovery":
		return r.recovery()
	case "candidates":
		return r.candidates()
	case "spill":
		return r.spill()
	}
	return fmt.Errorf("unhandled exhibit %q", exhibit)
}

func (r *runner) candidates() error {
	records := 100_000
	if r.quick {
		records = 5_000
	}
	res, err := experiments.Candidates(experiments.CandidatesParams{
		Records: records, Seed: r.seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("Candidate generation wall: %d reports, theta %.2f, %d partitions\n",
		res.Records, res.Theta, res.Partitions)
	fmt.Printf("%-22s %18s\n", "funnel stage", "pairs")
	fmt.Printf("%-22s %18d\n", "quadratic space", res.TotalPairs)
	fmt.Printf("%-22s %18d\n", "prefix-index scanned", res.Scanned)
	fmt.Printf("%-22s %18d\n", "exactly verified", res.Verified)
	fmt.Printf("%-22s %18d\n", "candidates emitted", res.Candidates)
	fmt.Printf("candidate reduction: %.0fx\n", res.ReductionX)
	fmt.Printf("prefix path: %v generation (index entries: %d) + %v downstream vectorization = %v\n",
		res.PrefixWall.Round(time.Millisecond), res.IndexEntries,
		res.PrefixDownstream.Round(time.Millisecond), res.PrefixTotal.Round(time.Millisecond))
	fmt.Printf("brute path: %d-pair sample vectorized in %v; extrapolated %v over the quadratic space (%.0fx slower)\n",
		res.SamplePairs, res.SampleWall.Round(time.Millisecond),
		res.BruteExtrapolated.Round(time.Second), res.SpeedupX)
	return nil
}

func (r *runner) speculation() error {
	env, err := r.environment()
	if err != nil {
		return err
	}
	rows, err := experiments.Speculation(env, experiments.SpeculationParams{Seed: r.seed})
	if err != nil {
		return err
	}
	fmt.Println("Speculative execution on the skewed straggler-injected workload")
	fmt.Printf("%-12s %16s %10s %6s %14s %12s\n",
		"speculation", "exec time", "launched", "wins", "wasted", "stragglers")
	for _, row := range rows {
		mode := "off"
		if row.Speculation {
			mode = "on"
		}
		fmt.Printf("%-12s %16v %10d %6d %14v %12d\n",
			mode, row.ExecutionTime.Round(time.Millisecond),
			row.SpeculativeLaunches, row.SpeculativeWins,
			row.WastedTime.Round(time.Millisecond), row.Stragglers)
	}
	fmt.Printf("makespan reduction: %.2fx\n", experiments.SpeculationSpeedup(rows))
	return nil
}

func (r *runner) recovery() error {
	env, err := r.environment()
	if err != nil {
		return err
	}
	rows, err := experiments.Recovery(env, experiments.RecoveryParams{Seed: r.seed})
	if err != nil {
		return err
	}
	fmt.Println("Executor-loss recovery on the shuffle workload (clean vs deterministic kills)")
	fmt.Printf("%-8s %16s %8s %12s %14s %14s\n",
		"kills", "exec time", "lost", "fetch fails", "recomp tasks", "recomp stages")
	for _, row := range rows {
		mode := "off"
		if row.Faulty {
			mode = "on"
		}
		fmt.Printf("%-8s %16v %8d %12d %14d %14d\n",
			mode, row.ExecutionTime.Round(time.Millisecond),
			row.MapOutputsLost, row.FetchFailures, row.RecomputedTasks, row.RecomputedStages)
	}
	fmt.Printf("recovery overhead: %.2fx\n", experiments.RecoveryOverhead(rows))
	return nil
}

func (r *runner) spill() error {
	params := experiments.SpillParams{Seed: r.seed}
	if r.quick {
		params.Records = 1500
		params.Partitions = 8
	}
	rows, err := experiments.Spill(params)
	if err != nil {
		return err
	}
	fmt.Println("Memory-pressure spilling on the classification pipeline (unbounded vs per-executor budget)")
	fmt.Printf("%-10s %12s %16s %8s %8s %8s %8s %14s\n",
		"budget", "candidates", "exec time", "spills", "block", "shuffle", "join", "spilled bytes")
	for _, row := range rows {
		budget := "unbounded"
		if row.Budgeted {
			budget = fmt.Sprintf("%d B", row.MemoryPerExecutorBytes)
		}
		fmt.Printf("%-10s %12d %16v %8d %8d %8d %8d %14d\n",
			budget, row.Candidates, row.ExecutionTime.Round(time.Millisecond),
			row.SpillEvents, row.BlockSpills, row.ShuffleSpills, row.JoinSpills, row.SpilledBytes)
	}
	fmt.Printf("spill overhead: %.2fx (results bit-identical)\n", experiments.SpillOverhead(rows))
	return nil
}

func (r *runner) loadbalance() error {
	env, err := r.environment()
	if err != nil {
		return err
	}
	rows, err := experiments.LoadBalance(env, experiments.LoadBalanceParams{
		TrainSize: r.n(200_000), TestSize: r.n(10_000), Seed: r.seed,
	})
	if err != nil {
		return err
	}
	fmt.Println("Load balancing (paper §7 future work): FIFO vs LPT scheduling")
	fmt.Printf("%-8s %16s\n", "policy", "exec time")
	for _, row := range rows {
		fmt.Printf("%-8s %16v\n", row.Policy, row.ExecutionTime.Round(time.Millisecond))
	}
	return nil
}

func (r *runner) fig5() error {
	env, err := r.environment()
	if err != nil {
		return err
	}
	sizes := []int{r.n(100_000), r.n(200_000), r.n(300_000), r.n(400_000), r.n(500_000)}
	res, err := experiments.Fig5(env, experiments.Fig5Params{
		TrainSizes: sizes, TestSize: r.n(20_000), Seed: r.seed,
	})
	if err != nil {
		return err
	}
	fmt.Println("Fig 5(c): AUPR by training size")
	fmt.Printf("%12s %8s %8s %14s\n", "train pairs", "kNN", "SVM", "SVM clustering")
	for _, p := range res.Points {
		fmt.Printf("%12d %8.3f %8.3f %14.3f\n", p.TrainPairs, p.AUPRKNN, p.AUPRSVM, p.AUPRSVMClustering)
	}
	fmt.Printf("mean kNN improvement over SVM: %.1f%% (paper: 19.1%%)\n\n", 100*res.ImprovementOverSVM)

	fmt.Printf("Fig 5(a): PR curve at %d training pairs (recall, precision)\n", sizes[len(sizes)-1])
	printCurves(res.CurveLargest)
	fmt.Printf("Fig 5(b): PR curve at %d training pairs (recall, precision)\n", sizes[0])
	printCurves(res.CurveSmall)
	return nil
}

func printCurves(curves map[string][]eval.Point) {
	for _, name := range []string{"kNN", "SVM"} {
		points := curves[name]
		fmt.Printf("  %s:", name)
		step := len(points)/10 + 1
		for i := 0; i < len(points); i += step {
			fmt.Printf(" (%.2f,%.2f)", points[i].Recall, points[i].Precision)
		}
		fmt.Println()
	}
}

func (r *runner) fig6() error {
	env, err := r.environment()
	if err != nil {
		return err
	}
	points, err := experiments.Fig6(env, experiments.Fig6Params{
		TrainSize: r.n(300_000), TestSize: r.n(10_000), Seed: r.seed,
	})
	if err != nil {
		return err
	}
	fmt.Println("Fig 6: effect of k (train=3M-scaled, test=10k-scaled)")
	fmt.Printf("%4s %8s %16s %18s\n", "k", "AUPR", "exec time", "clusters checked")
	for _, p := range points {
		fmt.Printf("%4d %8.3f %16v %18d\n", p.K, p.AUPR, p.ExecutionTime.Round(time.Millisecond), p.CrossChecked)
	}
	if len(points) >= 2 {
		first, last := points[0], points[len(points)-1]
		growth := float64(last.ExecutionTime-first.ExecutionTime) / float64(first.ExecutionTime)
		fmt.Printf("time growth k=%d -> k=%d: %.0f%% (paper: 31%%)\n", first.K, last.K, 100*growth)
	}
	return nil
}

func (r *runner) fig7(asFig8 bool) error {
	env, err := r.environment()
	if err != nil {
		return err
	}
	params := experiments.Fig7Params{
		Bs:        []int{10, 25, 40, 55, 70},
		TrainSize: r.n(400_000), TestSize: r.n(10_000), Seed: r.seed,
	}
	if asFig8 {
		params.PressureMemoryMB = 1
	}
	points, err := experiments.Fig7(env, params)
	if err != nil {
		return err
	}
	if asFig8 {
		fmt.Println("Fig 8: cross/intra ratio and execution time by cluster number (1MB executors)")
		fmt.Printf("%4s %12s %16s %10s %8s\n", "b", "cross/intra", "exec time", "pressure", "retries")
		for _, p := range points {
			fmt.Printf("%4d %12.4f %16v %10d %8d\n",
				p.B, p.CrossIntraRatio, p.ExecutionTime.Round(time.Millisecond), p.PressureEvents, p.TaskRetries)
		}
		return nil
	}
	fmt.Println("Fig 7: comparison counts by training cluster number")
	fmt.Printf("%4s %18s %20s %18s\n", "b", "intra comparisons", "additional clusters", "cross comparisons")
	for _, p := range points {
		fmt.Printf("%4d %18d %20d %18d\n",
			p.B, p.IntraClusterComparisons, p.AdditionalClustersChecked, p.CrossClusterComparisons)
	}
	return nil
}

func (r *runner) fig9() error {
	env, err := r.environment()
	if err != nil {
		return err
	}
	points, err := experiments.Fig9(env, experiments.Fig9Params{
		TrainSizes: []int{r.n(100_000), r.n(200_000), r.n(300_000), r.n(400_000), r.n(500_000)},
		TestSize:   r.n(10_000),
		Seed:       r.seed,
	})
	if err != nil {
		return err
	}
	fmt.Println("Fig 9: scalability with training set size (b=32, 25 executors)")
	fmt.Printf("%12s %8s %16s\n", "train pairs", "blocks", "exec time")
	for _, p := range points {
		fmt.Printf("%12d %8d %16v\n", p.TrainPairs, p.BlockNumber, p.ExecutionTime.Round(time.Millisecond))
	}
	return nil
}

func (r *runner) fig10() error {
	env, err := r.environment()
	if err != nil {
		return err
	}
	points, err := experiments.Fig10(env, experiments.Fig10Params{
		TrainSizes:    []int{r.n(200_000), r.n(300_000), r.n(400_000)},
		TestSize:      r.n(10_000),
		DistancePairs: r.n(100_000),
		Seed:          r.seed,
	})
	if err != nil {
		return err
	}
	fmt.Println("Fig 10: execution time by executor count (b=48, block number 5)")
	fmt.Printf("%10s %12s %16s %18s\n", "executors", "train pairs", "exec time", "distance time")
	for _, p := range points {
		fmt.Printf("%10d %12d %16v %18v\n",
			p.Executors, p.TrainPairs,
			p.ExecutionTime.Round(time.Millisecond), p.DistanceTime.Round(time.Millisecond))
	}
	return nil
}

func (r *runner) fig11() error {
	env, err := r.environment()
	if err != nil {
		return err
	}
	points, err := experiments.Fig11(env, experiments.Fig11Params{
		TrainSize: r.n(100_000), TestSize: r.n(200_000), Seed: r.seed,
	})
	if err != nil {
		return err
	}
	fmt.Println("Fig 11: testing-set pruning (threshold -1 = no pruning)")
	fmt.Printf("%10s %10s %16s %22s\n", "f(theta)", "included", "detection time", "true duplicates lost")
	for _, p := range points {
		fmt.Printf("%10.1f %9.1f%% %16v %22d\n",
			p.Threshold, 100*p.IncludedFraction, p.DetectionTime.Round(time.Millisecond), p.TrueDuplicatesPruned)
	}
	return nil
}

func (r *runner) ablation() error {
	env, err := r.environment()
	if err != nil {
		return err
	}
	rows, err := experiments.Ablation(env, experiments.AblationParams{
		TrainSize: r.n(200_000), TestSize: r.n(10_000), Seed: r.seed,
	})
	if err != nil {
		return err
	}
	fmt.Println("Ablations of Fast kNN design choices")
	fmt.Printf("%-22s %8s %18s %18s %14s %16s\n",
		"variant", "AUPR", "intra comparisons", "cross comparisons", "add. clusters", "exec time")
	for _, row := range rows {
		fmt.Printf("%-22s %8.3f %18d %18d %14d %16v\n",
			row.Variant, row.AUPR, row.IntraClusterComparisons,
			row.CrossClusterComparisons, row.AdditionalClusters,
			row.ExecutionTime.Round(time.Millisecond))
	}
	return nil
}
