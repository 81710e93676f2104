// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic TGA-profile corpus. Each experiment is a
// function returning a typed result that both cmd/experiments (pretty
// printing) and the root bench suite (testing.B) consume.
//
// Scale: the paper runs 1-5 million training pairs on a 14-node cluster;
// the defaults here are one tenth of that (100k-500k pairs) so every
// experiment completes on one machine in seconds-to-minutes. The Scale
// field multiplies pair counts back up for full-scale runs. Reported
// execution times are the virtual cluster times (see internal/cluster),
// which is what makes executor-count sweeps meaningful on a laptop.
package experiments

import (
	"fmt"

	"adrdedup/internal/adrgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
	"adrdedup/internal/intern"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
)

// Env is a prepared corpus + engine shared by the experiments.
type Env struct {
	Corpus *adrgen.Corpus
	Ctx    *rdd.Context
	// Interner holds the token IDs behind Feats; every feature of the
	// environment shares it, so pair vectorization runs on the merge-scan
	// Jaccard kernel.
	Interner *intern.Interner
	Feats    []pairdist.Features

	// TrainDups and TestDups are the ground-truth duplicate split used to
	// build labelled training sets and evaluated test sets.
	TrainDups []adrgen.DuplicatePair
	TestDups  []adrgen.DuplicatePair
}

// EnvConfig controls environment construction.
type EnvConfig struct {
	Cluster cluster.Config
	Corpus  adrgen.Config
	Seed    int64
}

// dupSplit is the fraction of ground-truth duplicates that go to the
// training side.
const dupSplit = 0.5

// The Fast kNN setting of every exhibit that does not fix its own: k = 9
// neighbours, b = 32 training clusters, c = 8 testing partitions, and 30% of
// the sampled negatives confusable.
const (
	exhibitK            = 9
	exhibitB            = 32
	exhibitC            = 8
	exhibitHardFraction = 0.3
)

// NewEnv generates the corpus, extracts report features in parallel, and
// splits the ground truth.
func NewEnv(cfg EnvConfig) (*Env, error) {
	corpus := adrgen.Generate(cfg.Corpus)
	cl := cluster.New(cfg.Cluster)
	ctx := rdd.NewContext(cl)
	it := intern.New()
	feats, err := pairdist.ExtractAllWith(ctx, it, corpus.Reports, ctx.DefaultParallelism())
	if err != nil {
		return nil, fmt.Errorf("experiments: extracting features: %w", err)
	}
	trainDups, testDups := corpus.SplitDuplicates(dupSplit, cfg.Seed)
	return &Env{
		Corpus:    corpus,
		Ctx:       ctx,
		Interner:  it,
		Feats:     feats,
		TrainDups: trainDups,
		TestDups:  testDups,
	}, nil
}

// ResetEngine replaces the virtual cluster (e.g. to sweep executor counts or
// memory budgets) while keeping the corpus and features. The trace event log
// is carried over so one export spans every engine configuration of a sweep.
func (e *Env) ResetEngine(cfg cluster.Config) {
	tracer := e.Ctx.Cluster().Tracer()
	cl := cluster.New(cfg)
	cl.SetTracer(tracer)
	e.Ctx = rdd.NewContext(cl)
}

// PairData is a labelled train set plus an evaluated test set of pair
// vectors.
type PairData struct {
	Train      []core.TrainingPair
	TestVecs   [][]float64
	TestLabels []int // ground truth (+1/-1) for PR evaluation
}

// BuildPairData samples and vectorizes a training set of trainTotal pairs
// (positives = the train half of the duplicate split) and a test set of
// testTotal pairs (positives = the held-out half).
func (e *Env) BuildPairData(trainTotal, testTotal int, hardFraction float64, seed int64) (*PairData, error) {
	trainIDs, err := e.Corpus.SamplePairs(adrgen.PairSampleOptions{
		Total: trainTotal, Positives: e.TrainDups, HardFraction: hardFraction, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: sampling training pairs: %w", err)
	}
	testIDs, err := e.Corpus.SamplePairs(adrgen.PairSampleOptions{
		Total: testTotal, Positives: e.TestDups, HardFraction: hardFraction, Seed: seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: sampling test pairs: %w", err)
	}

	trainRecs, err := e.vectorize(trainIDs)
	if err != nil {
		return nil, err
	}
	testRecs, err := e.vectorize(testIDs)
	if err != nil {
		return nil, err
	}

	out := &PairData{
		Train:      make([]core.TrainingPair, len(trainRecs)),
		TestVecs:   make([][]float64, len(testRecs)),
		TestLabels: make([]int, len(testRecs)),
	}
	for i, r := range trainRecs {
		out.Train[i] = core.TrainingPair{Vec: r.Vec, Label: r.Label}
	}
	for i, r := range testRecs {
		out.TestVecs[i] = r.Vec
		out.TestLabels[i] = r.Label
	}
	return out, nil
}

func (e *Env) vectorize(ids []adrgen.LabeledPair) ([]pairdist.PairRecord, error) {
	idPairs := make([]pairdist.IDPair, len(ids))
	for i, p := range ids {
		idPairs[i] = pairdist.IDPair{A: p.A, B: p.B, Label: p.Label}
	}
	recs, err := pairdist.ComputeVectors(e.Ctx, e.Feats, idPairs, e.Ctx.DefaultParallelism())
	if err != nil {
		return nil, fmt.Errorf("experiments: vectorizing pairs: %w", err)
	}
	return recs, nil
}

// SVMLabels converts training pairs to the parallel slices the SVM baseline
// consumes.
func SVMLabels(train []core.TrainingPair) ([][]float64, []int) {
	vecs := make([][]float64, len(train))
	labels := make([]int, len(train))
	for i, p := range train {
		vecs[i] = p.Vec
		labels[i] = p.Label
	}
	return vecs, labels
}

// DefaultCorpus is the Table 3 profile at one-tenth pair-sampling scale
// (the corpus itself is always full size: 10,382 reports, 286 duplicates).
func DefaultCorpus(seed int64) adrgen.Config {
	return adrgen.Config{Seed: seed}
}

// SmallCorpus is a reduced corpus for quick runs and benchmarks.
func SmallCorpus(seed int64) adrgen.Config {
	return adrgen.Config{NumReports: 2000, DuplicatePairs: 80, NumDrugs: 400, NumADRs: 700, Seed: seed}
}

// DefaultCluster mirrors the paper's testbed shape at laptop scale:
// 25 executors with 1 core each (the §5 configuration for Figs. 6-9),
// gigabit-class network, and a scheduler overhead per stage.
func DefaultCluster() cluster.Config {
	return cluster.Config{
		Executors:              25,
		CoresPerExecutor:       1,
		MemoryPerExecutorBytes: 64 << 20,
		ShuffleLatencyMS:       2,
		SchedulerOverheadMS:    5,
	}
}
