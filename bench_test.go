// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), one benchmark per exhibit, plus ablation and engine micro-benchmarks.
// Pair counts are scaled down (see EXPERIMENTS.md) so the full suite runs in
// minutes; cmd/experiments runs the same code at larger scale. Paper-shape
// quantities (AUPR, comparison counts, virtual times) are emitted as custom
// benchmark metrics.
package adrdedup_test

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"adrdedup"
	"adrdedup/internal/adr"
	"adrdedup/internal/adrgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
	"adrdedup/internal/eval"
	"adrdedup/internal/experiments"
	"adrdedup/internal/kmeans"
	"adrdedup/internal/knn"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
	"adrdedup/internal/serve"
	"adrdedup/internal/svm"
	"adrdedup/internal/text"
)

// benchState is shared, lazily-built benchmark input: a small corpus with
// pair data at two sizes.
type benchState struct {
	env   *experiments.Env
	data  *experiments.PairData // 30k train / 4k test
	large *experiments.PairData // 60k train / 4k test
}

var (
	benchOnce sync.Once
	bench     benchState
	benchErr  error
)

func benchSetup(b *testing.B) *benchState {
	b.Helper()
	benchOnce.Do(func() {
		env, err := experiments.NewEnv(experiments.DefaultCluster(), experiments.SmallCorpus(1), 2)
		if err != nil {
			benchErr = err
			return
		}
		bench.env = env
		if bench.data, benchErr = env.BuildPairData(30_000, 4_000, 0.3, 3); benchErr != nil {
			return
		}
		bench.large, benchErr = env.BuildPairData(60_000, 4_000, 0.3, 4)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return &bench
}

func knnAUPR(b *testing.B, s *benchState, data *experiments.PairData, cfg core.Config) (float64, core.Stats) {
	b.Helper()
	clf, err := core.Train(s.env.Ctx, data.Train, cfg)
	if err != nil {
		b.Fatal(err)
	}
	results, stats, err := clf.Classify(data.TestVecs)
	if err != nil {
		b.Fatal(err)
	}
	scores := make([]float64, len(results))
	for _, r := range results {
		scores[r.ID] = r.Score
	}
	aupr, err := eval.AUPR(scores, data.TestLabels)
	if err != nil {
		b.Fatal(err)
	}
	return aupr, stats
}

// BenchmarkTable3DatasetSummary times the Table 3 corpus summary over the
// full 10,382-report profile.
func BenchmarkTable3DatasetSummary(b *testing.B) {
	corpus := adrgen.Generate(experiments.DefaultCorpus(1))
	b.ResetTimer()
	var summary experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		if summary, err = experiments.Table3(corpus); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var out strings.Builder
	if err := experiments.Write(&out, "table3", false, []experiments.Table{summary}); err != nil {
		b.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^Number of cases +10382$`).MatchString(out.String()) {
		b.Fatalf("summary does not count 10382 cases:\n%s", out.String())
	}
}

// BenchmarkFig5PRCurves regenerates the Fig. 5(a)/(b) comparison: Fast kNN
// vs SVM PR behaviour on one imbalanced pair set.
func BenchmarkFig5PRCurves(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		aupr, _ := knnAUPR(b, s, s.data, core.Config{K: 9, B: 24, C: 6, Seed: 5})
		vecs, labels := experiments.SVMLabels(s.data.Train)
		m, err := svm.Train(vecs, labels, svm.Options{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		svmAUPR, err := eval.AUPR(m.DecisionBatch(s.data.TestVecs), s.data.TestLabels)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(aupr, "kNN-AUPR")
		b.ReportMetric(svmAUPR, "SVM-AUPR")
	}
}

// BenchmarkFig5cAUPRByTrainingSize regenerates the Fig. 5(c) bars at two
// training sizes per classifier.
func BenchmarkFig5cAUPRByTrainingSize(b *testing.B) {
	s := benchSetup(b)
	for _, tc := range []struct {
		name string
		data *experiments.PairData
	}{
		{"train=30k", s.data},
		{"train=60k", s.large},
	} {
		b.Run(tc.name+"/kNN", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aupr, _ := knnAUPR(b, s, tc.data, core.Config{K: 9, B: 24, C: 6, Seed: 6})
				b.ReportMetric(aupr, "AUPR")
			}
		})
		b.Run(tc.name+"/SVM", func(b *testing.B) {
			vecs, labels := experiments.SVMLabels(tc.data.Train)
			for i := 0; i < b.N; i++ {
				m, err := svm.Train(vecs, labels, svm.Options{Seed: 6})
				if err != nil {
					b.Fatal(err)
				}
				aupr, err := eval.AUPR(m.DecisionBatch(tc.data.TestVecs), tc.data.TestLabels)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(aupr, "AUPR")
			}
		})
		b.Run(tc.name+"/SVMclustering", func(b *testing.B) {
			vecs, labels := experiments.SVMLabels(tc.data.Train)
			for i := 0; i < b.N; i++ {
				m, err := svm.TrainClustered(vecs, labels, 8, svm.Options{Seed: 6})
				if err != nil {
					b.Fatal(err)
				}
				aupr, err := eval.AUPR(m.DecisionBatch(tc.data.TestVecs), tc.data.TestLabels)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(aupr, "AUPR")
			}
		})
	}
}

// BenchmarkFig6EffectOfK regenerates Fig. 6: AUPR stability and execution
// cost across k.
func BenchmarkFig6EffectOfK(b *testing.B) {
	s := benchSetup(b)
	for _, k := range []int{5, 13, 21} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aupr, stats := knnAUPR(b, s, s.data, core.Config{K: k, B: 24, C: 6, Seed: 7})
				b.ReportMetric(aupr, "AUPR")
				b.ReportMetric(float64(stats.VirtualTime.Milliseconds()), "virtual-ms")
			}
		})
	}
}

// BenchmarkFig7ClusterNumber regenerates Fig. 7: comparison counts across
// the training cluster number.
func BenchmarkFig7ClusterNumber(b *testing.B) {
	s := benchSetup(b)
	for _, bb := range []int{10, 40, 70} {
		b.Run(fmt.Sprintf("b=%d", bb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, stats := knnAUPR(b, s, s.large, core.Config{K: 9, B: bb, C: 6, Seed: 8})
				b.ReportMetric(float64(stats.IntraClusterComparisons), "intra-cmps")
				b.ReportMetric(float64(stats.CrossClusterComparisons), "cross-cmps")
				b.ReportMetric(float64(stats.AdditionalClustersChecked), "clusters-checked")
			}
		})
	}
}

// BenchmarkFig8CrossIntraRatio regenerates Fig. 8(a)-(b): the cross/intra
// ratio and the memory-pressure regime at a small cluster number.
func BenchmarkFig8CrossIntraRatio(b *testing.B) {
	s := benchSetup(b)
	b.Run("comfortable-memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, stats := knnAUPR(b, s, s.large, core.Config{K: 9, B: 40, C: 6, Seed: 9})
			b.ReportMetric(float64(stats.CrossClusterComparisons)/float64(stats.IntraClusterComparisons), "cross/intra")
			b.ReportMetric(float64(stats.VirtualTime.Milliseconds()), "virtual-ms")
		}
	})
	b.Run("tight-memory-small-b", func(b *testing.B) {
		cfg := experiments.DefaultCluster()
		cfg.MemoryPerExecutorBytes = 1 << 20
		cfg.PressureTimeouts = true
		for i := 0; i < b.N; i++ {
			env, err := experiments.NewEnv(cfg, experiments.SmallCorpus(1), 2)
			if err != nil {
				b.Fatal(err)
			}
			clf, err := core.Train(env.Ctx, s.large.Train, core.Config{K: 9, B: 5, C: 6, Seed: 9})
			if err != nil {
				b.Fatal(err)
			}
			_, stats, err := clf.Classify(s.large.TestVecs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(stats.VirtualTime.Milliseconds()), "virtual-ms")
			b.ReportMetric(float64(env.Ctx.Cluster().Metrics().PressureEvents.Load()), "pressure-events")
		}
	})
}

// BenchmarkFig9TrainingScalability regenerates Fig. 9: virtual time growth
// with training size.
func BenchmarkFig9TrainingScalability(b *testing.B) {
	s := benchSetup(b)
	for _, tc := range []struct {
		name string
		data *experiments.PairData
	}{
		{"train=30k", s.data},
		{"train=60k", s.large},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, stats := knnAUPR(b, s, tc.data, core.Config{K: 9, B: 32, C: 8, Seed: 10})
				b.ReportMetric(float64(stats.VirtualTime.Milliseconds()), "virtual-ms")
			}
		})
	}
}

// BenchmarkFig10ExecutorScaling regenerates Fig. 10: virtual time across
// executor counts for the same workload.
func BenchmarkFig10ExecutorScaling(b *testing.B) {
	s := benchSetup(b)
	for _, execs := range []int{5, 25} {
		b.Run(fmt.Sprintf("executors=%d", execs), func(b *testing.B) {
			cfg := experiments.DefaultCluster()
			cfg.Executors = execs
			for i := 0; i < b.N; i++ {
				cl := cluster.New(cfg)
				ctx := rdd.NewContext(cl)
				clf, err := core.Train(ctx, s.data.Train, core.Config{K: 9, B: 48, C: 5, Seed: 11})
				if err != nil {
					b.Fatal(err)
				}
				_, stats, err := clf.Classify(s.data.TestVecs)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.VirtualTime.Milliseconds()), "virtual-ms")
			}
		})
	}
}

// BenchmarkFig11TestSetPruning regenerates Fig. 11: detection cost with and
// without §4.3.4 testing-set pruning.
func BenchmarkFig11TestSetPruning(b *testing.B) {
	s := benchSetup(b)
	run := func(b *testing.B, pruning *core.PruningConfig) {
		for i := 0; i < b.N; i++ {
			clf, err := core.Train(s.env.Ctx, s.data.Train, core.Config{
				K: 9, B: 24, C: 6, Seed: 12, Pruning: pruning,
			})
			if err != nil {
				b.Fatal(err)
			}
			_, stats, err := clf.Classify(s.data.TestVecs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(1-float64(stats.PrunedPairs)/float64(stats.TestPairs), "included-frac")
			b.ReportMetric(float64(stats.VirtualTime.Milliseconds()), "virtual-ms")
		}
	}
	b.Run("no-pruning", func(b *testing.B) { run(b, nil) })
	for _, th := range []float64{0.5, 0.9} {
		b.Run(fmt.Sprintf("ftheta=%.1f", th), func(b *testing.B) {
			run(b, &core.PruningConfig{Clusters: 10, FTheta: th})
		})
	}
}

// BenchmarkAblationVoteVsWeighted compares Eq. 5 inverse-distance scoring
// against Eq. 1 majority voting under imbalance.
func BenchmarkAblationVoteVsWeighted(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablation(s.env, 20_000, 3_000, 13)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Variant {
			case "fast-knn":
				b.ReportMetric(r.AUPR, "weighted-AUPR")
			case "majority-vote":
				b.ReportMetric(r.AUPR, "vote-AUPR")
			}
		}
	}
}

// BenchmarkAblationPartitionPruning measures what Algorithm 1 saves over
// exhaustive cross-cluster search.
func BenchmarkAblationPartitionPruning(b *testing.B) {
	s := benchSetup(b)
	b.Run("algorithm1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, stats := knnAUPR(b, s, s.data, core.Config{K: 9, B: 24, C: 6, Seed: 14})
			b.ReportMetric(float64(stats.CrossClusterComparisons), "cross-cmps")
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, stats := knnAUPR(b, s, s.data, core.Config{
				K: 9, B: 24, C: 6, Seed: 14, DisablePartitionPruning: true,
			})
			b.ReportMetric(float64(stats.CrossClusterComparisons), "cross-cmps")
		}
	})
}

// BenchmarkAblationRandomPartition measures what k-means Voronoi
// partitioning buys over random partitioning.
func BenchmarkAblationRandomPartition(b *testing.B) {
	s := benchSetup(b)
	b.Run("kmeans", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, stats := knnAUPR(b, s, s.data, core.Config{K: 9, B: 24, C: 6, Seed: 15})
			b.ReportMetric(float64(stats.CrossClusterComparisons), "cross-cmps")
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, stats := knnAUPR(b, s, s.data, core.Config{
				K: 9, B: 24, C: 6, Seed: 15, RandomPartition: true,
			})
			b.ReportMetric(float64(stats.CrossClusterComparisons), "cross-cmps")
		}
	})
}

// BenchmarkAblationLoadBalancing compares FIFO and LPT task placement —
// the paper's §7 future work — on the same classification workload.
func BenchmarkAblationLoadBalancing(b *testing.B) {
	s := benchSetup(b)
	for _, policy := range []cluster.SchedulePolicy{cluster.ScheduleFIFO, cluster.ScheduleLPT} {
		b.Run(policy.String(), func(b *testing.B) {
			cfg := experiments.DefaultCluster()
			cfg.Executors = 16
			cfg.Scheduling = policy
			for i := 0; i < b.N; i++ {
				ctx := rdd.NewContext(cluster.New(cfg))
				clf, err := core.Train(ctx, s.data.Train, core.Config{K: 9, B: 48, C: 8, Seed: 18})
				if err != nil {
					b.Fatal(err)
				}
				_, stats, err := clf.Classify(s.data.TestVecs)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.VirtualTime.Milliseconds()), "virtual-ms")
			}
		})
	}
}

// BenchmarkLearnedPruningThreshold measures §5.2.6's future work: learning
// f(θ) from labelled data, then classifying with the learned setting.
func BenchmarkLearnedPruningThreshold(b *testing.B) {
	s := benchSetup(b)
	validation, err := s.env.BuildPairData(5_000, 100, 0.3, 19)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pruning, err := core.LearnPruningThreshold(s.data.Train, validation.Train, 10, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		clf, err := core.Train(s.env.Ctx, s.data.Train, core.Config{
			K: 9, B: 24, C: 6, Seed: 20, Pruning: pruning,
		})
		if err != nil {
			b.Fatal(err)
		}
		_, stats, err := clf.Classify(s.data.TestVecs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pruning.FTheta, "learned-ftheta")
		b.ReportMetric(1-float64(stats.PrunedPairs)/float64(stats.TestPairs), "included-frac")
	}
}

// BenchmarkNaiveKNNJoinBaseline measures the §4.3.1 block nested-loop join
// that Fast kNN replaces, at matched data size.
func BenchmarkNaiveKNNJoinBaseline(b *testing.B) {
	s := benchSetup(b)
	train := make([]knn.Item, 10_000)
	for i := range train {
		train[i] = knn.Item{ID: i, Vec: s.data.Train[i].Vec, Label: s.data.Train[i].Label}
	}
	queries := make([]knn.Item, 1_000)
	for i := range queries {
		queries[i] = knn.Item{ID: 100_000 + i, Vec: s.data.TestVecs[i]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := rdd.NewContext(cluster.New(experiments.DefaultCluster()))
		if _, err := knn.NaiveJoin(ctx, queries, train, 9, 5, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- engine and substrate micro-benchmarks ---

func BenchmarkPairDistance(b *testing.B) {
	s := benchSetup(b)
	f1 := s.env.Feats[0]
	f2 := s.env.Feats[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairdist.Distance(f1, f2)
	}
}

func BenchmarkTextPipeline(b *testing.B) {
	s := benchSetup(b)
	desc := s.env.Corpus.Reports[0].ReportDescription
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text.Process(desc)
	}
}

func BenchmarkKMeansPartitioning(b *testing.B) {
	s := benchSetup(b)
	vecs := make([][]float64, len(s.data.Train))
	for i, p := range s.data.Train {
		vecs[i] = p.Vec
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kmeans.Run(vecs, 32, kmeans.Options{Seed: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactKNNQuery(b *testing.B) {
	s := benchSetup(b)
	vecs := make([][]float64, 10_000)
	labels := make([]int, 10_000)
	for i := range vecs {
		vecs[i] = s.data.Train[i].Vec
		labels[i] = s.data.Train[i].Label
	}
	q := s.data.TestVecs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knn.Query(q, vecs, labels, 9)
	}
}

func BenchmarkRDDShuffleReduceByKey(b *testing.B) {
	pairs := make([]rdd.Pair[int, int], 100_000)
	for i := range pairs {
		pairs[i] = rdd.KV(i%1000, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := rdd.NewContext(cluster.New(cluster.Config{Executors: 8}))
		r := rdd.Parallelize(ctx, pairs, 16)
		if _, err := rdd.ReduceByKey(r, func(a, b int) int { return a + b }, 8).Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndDetectBatch(b *testing.B) {
	corpus := adrgen.Generate(adrgen.Config{
		NumReports: 1000, DuplicatePairs: 40, NumDrugs: 200, NumADRs: 300, Seed: 17,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, err := adrdedup.New(adrdedup.Options{
			Cluster:    cluster.Config{Executors: 8},
			Classifier: core.Config{K: 7, B: 12, C: 4},
		})
		if err != nil {
			b.Fatal(err)
		}
		all := corpus.Reports
		if err := det.AddKnownReports(stripArrival(all[:980])); err != nil {
			b.Fatal(err)
		}
		var labelled []adrdedup.LabeledCasePair
		for _, d := range corpus.Duplicates {
			if _, ok := det.Database().Get(d.CaseA); !ok {
				continue
			}
			if _, ok := det.Database().Get(d.CaseB); !ok {
				continue
			}
			labelled = append(labelled, adrdedup.LabeledCasePair{CaseA: d.CaseA, CaseB: d.CaseB, Duplicate: true})
		}
		dbReports := det.Database().Reports()
		for j := 0; j+13 < len(dbReports) && len(labelled) < 1500; j++ {
			labelled = append(labelled, adrdedup.LabeledCasePair{
				CaseA: dbReports[j].CaseNumber, CaseB: dbReports[j+13].CaseNumber,
			})
		}
		if err := det.TrainFromLabeledCases(labelled); err != nil {
			b.Fatal(err)
		}
		if _, err := det.Detect(stripArrival(all[980:])); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectBatchShape times Detect at the shape of the benchmark
// harness's batch_detect workload: 250-report batches against a 10k-report
// database bootstrapped once, prefix-index candidates at θ 0.5.
func BenchmarkDetectBatchShape(b *testing.B) {
	benchmarkDetectShape(b, 10_000, 250)
}

// BenchmarkDetectMixedShape times Detect at the in-process shape of the
// benchmark harness's serve_mixed workload: 10-report batches against a
// 3k-report database bootstrapped once, prefix-index candidates at θ 0.5.
func BenchmarkDetectMixedShape(b *testing.B) {
	benchmarkDetectShape(b, 3_000, 10)
}

// benchmarkDetectShape times perCall-report Detect calls against a database of
// seed reports bootstrapped as the benchmark harness does. pairs/op,
// distinct/op and classified/op are the candidate pairs per call, the
// distinct distance vectors among them, and the vectors the model had not
// scored before, which are all Classify is sent; stages/op and tasks/op are
// the engine stages run and task attempts launched per call.
func benchmarkDetectShape(b *testing.B, seed, perCall int) {
	boot, err := serve.NewBootstrap(serve.BootstrapConfig{
		SeedReports:    seed,
		SeedDuplicates: seed / 25,
		Seed:           1,
		Detector: adrdedup.Options{
			Cluster:        cluster.Config{Executors: 8},
			Classifier:     core.Config{Seed: 1},
			Candidates:     adrdedup.CandidatePrefixIndex,
			CandidateTheta: 0.5,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer boot.Detector.Engine().Cluster().Close()
	traffic := serve.GenerateTraffic(serve.TrafficConfig{Reports: perCall * b.N, Seed: 3})
	var pairs, distinct, classified int
	// Engine stages and tasks per call, as deltas of the detector's metrics:
	// where the engine's fixed cost per Detect goes.
	start := boot.Detector.Metrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := boot.Detector.Detect(traffic[i*perCall : (i+1)*perCall]); err != nil {
			b.Fatal(err)
		}
		p, d, c := boot.Detector.LastDetectShape()
		pairs += p
		distinct += d
		classified += c
	}
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
	b.ReportMetric(float64(distinct)/float64(b.N), "distinct/op")
	b.ReportMetric(float64(classified)/float64(b.N), "classified/op")
	end := boot.Detector.Metrics()
	b.ReportMetric(float64(end.StagesRun-start.StagesRun)/float64(b.N), "stages/op")
	b.ReportMetric(float64(end.TasksLaunched-start.TasksLaunched)/float64(b.N), "tasks/op")
}

// stripArrival clears generator arrival sequences so the database assigns
// its own.
func stripArrival(rs []adr.Report) []adr.Report {
	out := make([]adr.Report, len(rs))
	copy(out, rs)
	for i := range out {
		out[i].ArrivalSeq = 0
	}
	return out
}
