package core

import (
	"math"
	"math/rand"
	"testing"

	"adrdedup/internal/cluster"
	"adrdedup/internal/knn"
	"adrdedup/internal/rdd"
)

func testCtx() *rdd.Context {
	return rdd.NewContext(cluster.New(cluster.Config{Executors: 4, CoresPerExecutor: 2}))
}

// synthData builds an imbalanced training set shaped like the paper's pair
// vectors: positives (duplicates) have small distance vectors, negatives
// spread across the unit cube, with some negatives near the positive region
// (hard negatives).
func synthData(nPos, nNeg, dim int, seed int64) []TrainingPair {
	rng := rand.New(rand.NewSource(seed))
	out := make([]TrainingPair, 0, nPos+nNeg)
	for i := 0; i < nPos; i++ {
		v := make([]float64, dim)
		for d := range v {
			v[d] = math.Abs(rng.NormFloat64() * 0.08)
		}
		out = append(out, TrainingPair{Vec: v, Label: +1})
	}
	for i := 0; i < nNeg; i++ {
		v := make([]float64, dim)
		base := 0.25 + 0.75*rng.Float64()
		if i%10 == 0 { // hard negative
			base = 0.12 + 0.2*rng.Float64()
		}
		for d := range v {
			v[d] = math.Min(1, math.Max(0, base+rng.NormFloat64()*0.1))
		}
		out = append(out, TrainingPair{Vec: v, Label: -1})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func synthQueries(n, dim int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]float64, n)
	truth := make([]int, n)
	for i := range qs {
		v := make([]float64, dim)
		if i%7 == 0 { // ~14% near the positive region
			for d := range v {
				v[d] = math.Abs(rng.NormFloat64() * 0.08)
			}
			truth[i] = +1
		} else {
			base := 0.3 + 0.7*rng.Float64()
			for d := range v {
				v[d] = math.Min(1, math.Max(0, base+rng.NormFloat64()*0.1))
			}
			truth[i] = -1
		}
		qs[i] = v
	}
	return qs, truth
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{K: 4}).Validate(); err == nil {
		t.Error("even k must be rejected")
	}
	if err := (Config{K: 5}).Validate(); err != nil {
		t.Errorf("odd k rejected: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	if err := (Config{Pruning: &PruningConfig{Clusters: 0}}).Validate(); err == nil {
		t.Error("pruning with zero clusters must be rejected")
	}
	if err := (Config{Pruning: &PruningConfig{Clusters: 5, FTheta: -1}}).Validate(); err == nil {
		t.Error("negative f(theta) must be rejected")
	}
}

func TestTrainValidation(t *testing.T) {
	ctx := testCtx()
	if _, err := Train(ctx, nil, Config{}); err == nil {
		t.Error("empty training set must be rejected")
	}
	bad := []TrainingPair{{Vec: []float64{1, 2}, Label: 1}, {Vec: []float64{1}, Label: -1}}
	if _, err := Train(ctx, bad, Config{}); err == nil {
		t.Error("ragged dimensions must be rejected")
	}
	badLabel := []TrainingPair{{Vec: []float64{1}, Label: 0}}
	if _, err := Train(ctx, badLabel, Config{}); err == nil {
		t.Error("label 0 must be rejected")
	}
}

func TestFastEqualsExactLabels(t *testing.T) {
	const dim = 7
	train := synthData(25, 3000, dim, 1)
	queries, _ := synthQueries(300, dim, 2)

	ctx := testCtx()
	cfg := Config{K: 9, B: 12, C: 4, Seed: 3}
	clf, err := Train(ctx, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := clf.Classify(queries)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExactClassify(train, queries, cfg.K, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("results = %d, want %d", len(got), len(want))
	}
	scoreChecked := 0
	for i := range got {
		if got[i].ID != i {
			t.Fatalf("result %d has ID %d", i, got[i].ID)
		}
		if got[i].Label != want[i].Label {
			t.Errorf("query %d: fast label %d != exact label %d (scores %v vs %v)",
				i, got[i].Label, want[i].Label, got[i].Score, want[i].Score)
		}
		// When a positive reached the top-k, the cross-cluster search
		// guarantees the exact neighbor set, hence the exact score.
		hasPos := false
		for _, n := range got[i].Neighbors {
			if n.Label > 0 {
				hasPos = true
			}
		}
		if hasPos {
			scoreChecked++
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Errorf("query %d: fast score %v != exact score %v", i, got[i].Score, want[i].Score)
			}
		}
	}
	if scoreChecked == 0 {
		t.Error("no query had a positive neighbor; test data is degenerate")
	}
	if stats.IntraClusterComparisons == 0 {
		t.Error("no intra-cluster comparisons counted")
	}
	t.Logf("stats: %+v (exact-score-checked: %d)", stats, scoreChecked)
}

// TestFastEqualsExactAcrossSeeds is the exactness property over several
// random datasets and configurations: Fast kNN labels always match the
// brute-force reference.
func TestFastEqualsExactAcrossSeeds(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		k, b int
	}{
		{seed: 100, k: 5, b: 7},
		{seed: 200, k: 13, b: 25},
		{seed: 300, k: 21, b: 3},
		{seed: 400, k: 9, b: 50},
	} {
		train := synthData(18, 1200, 6, tc.seed)
		queries, _ := synthQueries(120, 6, tc.seed+1)
		ctx := testCtx()
		clf, err := Train(ctx, train, Config{K: tc.k, B: tc.b, C: 3, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := clf.Classify(queries)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ExactClassify(train, queries, tc.k, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].Label != want[i].Label {
				t.Errorf("seed=%d k=%d b=%d query %d: label %d != exact %d",
					tc.seed, tc.k, tc.b, i, got[i].Label, want[i].Label)
			}
		}
	}
}

func TestCrossClusterSearchIsSelective(t *testing.T) {
	const dim = 7
	train := synthData(20, 4000, dim, 4)
	queries, _ := synthQueries(200, dim, 5)

	ctx := testCtx()
	clf, err := Train(ctx, train, Config{K: 9, B: 20, C: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := clf.Classify(queries)
	if err != nil {
		t.Fatal(err)
	}
	// The headline claim of §5.2.4: cross-cluster comparisons are a small
	// fraction of intra-cluster comparisons (paper: 1.4-1.9%).
	ratio := float64(stats.CrossClusterComparisons) / float64(stats.IntraClusterComparisons)
	if ratio > 0.3 {
		t.Errorf("cross/intra ratio = %.3f; pruning is not selective", ratio)
	}
	t.Logf("cross/intra ratio = %.4f", ratio)
}

func TestAblationExhaustiveCrossSearch(t *testing.T) {
	const dim = 5
	train := synthData(15, 2000, dim, 7)
	queries, _ := synthQueries(150, dim, 8)

	run := func(cfg Config) ([]Result, Stats) {
		ctx := testCtx()
		clf, err := Train(ctx, train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, stats, err := clf.Classify(queries)
		if err != nil {
			t.Fatal(err)
		}
		return res, stats
	}
	pruned, prunedStats := run(Config{K: 7, B: 10, C: 4, Seed: 9})
	naive, naiveStats := run(Config{K: 7, B: 10, C: 4, Seed: 9, DisablePartitionPruning: true})
	for i := range pruned {
		if pruned[i].Label != naive[i].Label {
			t.Errorf("query %d: pruned label %d != exhaustive label %d", i, pruned[i].Label, naive[i].Label)
		}
	}
	if naiveStats.CrossClusterComparisons <= prunedStats.CrossClusterComparisons {
		t.Errorf("exhaustive search (%d) should cost more than Algorithm 1 (%d)",
			naiveStats.CrossClusterComparisons, prunedStats.CrossClusterComparisons)
	}
}

func TestAblationDisablePositiveShortcut(t *testing.T) {
	const dim = 5
	train := synthData(15, 2000, dim, 10)
	queries, _ := synthQueries(150, dim, 11)

	ctxA := testCtx()
	a, err := Train(ctxA, train, Config{K: 7, B: 10, C: 4, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	resA, statsA, err := a.Classify(queries)
	if err != nil {
		t.Fatal(err)
	}
	ctxB := testCtx()
	b, err := Train(ctxB, train, Config{K: 7, B: 10, C: 4, Seed: 12, DisablePositiveShortcut: true})
	if err != nil {
		t.Fatal(err)
	}
	resB, statsB, err := b.Classify(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resA {
		if resA[i].Label != resB[i].Label {
			t.Errorf("query %d labels differ: %d vs %d", i, resA[i].Label, resB[i].Label)
		}
	}
	if statsB.CrossClusterComparisons < statsA.CrossClusterComparisons {
		t.Errorf("disabling the shortcut should not reduce cross comparisons (%d vs %d)",
			statsB.CrossClusterComparisons, statsA.CrossClusterComparisons)
	}
}

func TestRandomPartitionStillCorrectLabels(t *testing.T) {
	const dim = 5
	train := synthData(12, 1500, dim, 13)
	queries, _ := synthQueries(100, dim, 14)

	ctx := testCtx()
	clf, err := Train(ctx, train, Config{K: 7, B: 8, C: 3, Seed: 15, RandomPartition: true})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := clf.Classify(queries)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExactClassify(train, queries, 7, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Label != want[i].Label {
			t.Errorf("query %d: random-partition label %d != exact %d", i, got[i].Label, want[i].Label)
		}
	}
}

func TestClassificationQuality(t *testing.T) {
	const dim = 7
	train := synthData(30, 5000, dim, 16)
	queries, truth := synthQueries(400, dim, 17)

	ctx := testCtx()
	clf, err := Train(ctx, train, Config{K: 9, B: 16, C: 4, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := clf.Classify(queries)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, r := range res {
		if r.Label == truth[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(res))
	if acc < 0.9 {
		t.Errorf("accuracy = %.3f, want >= 0.9 on well-separated synthetic data", acc)
	}
}

func TestPruningDropsFarPairsKeepsNearOnes(t *testing.T) {
	const dim = 4
	train := synthData(20, 1000, dim, 19)
	ctx := testCtx()
	clf, err := Train(ctx, train, Config{
		K: 5, B: 6, C: 3, Seed: 20,
		Pruning: &PruningConfig{Clusters: 4, FTheta: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	near := make([]float64, dim) // at the positive centroid: must survive
	far := make([]float64, dim)
	for d := range far {
		far[d] = 1 // opposite corner: must be pruned
	}
	res, stats, err := clf.Classify([][]float64{near, far})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Pruned {
		t.Error("near-positive pair was pruned")
	}
	if !res[1].Pruned {
		t.Error("far pair was not pruned")
	}
	if res[1].Label != -1 || !math.IsInf(res[1].Score, -1) {
		t.Errorf("pruned pair result = %+v", res[1])
	}
	if stats.PrunedPairs != 1 {
		t.Errorf("PrunedPairs = %d", stats.PrunedPairs)
	}
}

func TestPruningNeverDropsTruePositives(t *testing.T) {
	// The paper reports that all threshold settings kept every true
	// duplicate; with FTheta covering the positive spread this must hold.
	const dim = 7
	train := synthData(25, 2000, dim, 21)
	queries, truth := synthQueries(300, dim, 22)
	ctx := testCtx()
	clf, err := Train(ctx, train, Config{
		K: 9, B: 10, C: 4, Seed: 23,
		Pruning: &PruningConfig{Clusters: 8, FTheta: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := clf.Classify(queries)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PrunedPairs == 0 {
		t.Error("expected some pruning on far pairs")
	}
	for i, r := range res {
		if truth[i] == +1 && r.Pruned {
			t.Errorf("true duplicate %d was pruned", i)
		}
	}
}

func TestClassifyEdgeCases(t *testing.T) {
	ctx := testCtx()
	train := synthData(5, 100, 3, 24)
	clf, err := Train(ctx, train, Config{K: 3, B: 4, C: 2, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := clf.Classify(nil)
	if err != nil || len(res) != 0 || stats.TestPairs != 0 {
		t.Errorf("empty classify: %v, %v, %+v", res, err, stats)
	}
	if _, _, err := clf.Classify([][]float64{{1, 2}}); err == nil {
		t.Error("dimension mismatch must be rejected")
	}
}

func TestKLargerThanTrainingSet(t *testing.T) {
	ctx := testCtx()
	train := synthData(3, 10, 3, 26)
	clf, err := Train(ctx, train, Config{K: 21, B: 2, C: 2, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	queries, _ := synthQueries(10, 3, 28)
	got, _, err := clf.Classify(queries)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExactClassify(train, queries, 21, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Label != want[i].Label {
			t.Errorf("query %d label mismatch with tiny training set", i)
		}
	}
}

func TestRepeatedClassifyReusesCachedBlocks(t *testing.T) {
	ctx := testCtx()
	train := synthData(10, 800, 4, 29)
	clf, err := Train(ctx, train, Config{K: 5, B: 6, C: 3, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	queries, _ := synthQueries(50, 4, 31)
	if _, _, err := clf.Classify(queries); err != nil {
		t.Fatal(err)
	}
	hitsBefore := ctx.Cluster().Metrics().BlockHits.Load()
	if _, _, err := clf.Classify(queries); err != nil {
		t.Fatal(err)
	}
	if hits := ctx.Cluster().Metrics().BlockHits.Load(); hits <= hitsBefore {
		t.Error("second Classify did not hit the cached training blocks")
	}
}

// TestTrainTwiceClassifiesIdentically: a classifier is a function of its
// training pairs and Config alone. Two Trains of the same pairs on separate
// engines, pruning on, return the same neighbors to the bit for the same
// work, so a detector that retrains at every boot serves what it served
// before the restart.
func TestTrainTwiceClassifiesIdentically(t *testing.T) {
	const dim = 7
	train := synthData(20, 2000, dim, 51)
	queries, _ := synthQueries(150, dim, 52)
	cfg := Config{K: 9, B: 10, C: 4, Seed: 53, Pruning: &PruningConfig{Clusters: 5, FTheta: 0.5}}
	classify := func() ([]Result, Stats) {
		clf, err := Train(testCtx(), train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, st, err := clf.Classify(queries)
		if err != nil {
			t.Fatal(err)
		}
		st.VirtualTime = 0
		return res, st
	}
	want, wantStats := classify()
	got, gotStats := classify()
	if err := sameResults(got, want); err != nil {
		t.Errorf("second Train vs first: %v", err)
	}
	if gotStats != wantStats {
		t.Errorf("second Train's stats %+v, first's %+v", gotStats, wantStats)
	}
}

func TestVirtualTimeAdvancesWithWork(t *testing.T) {
	ctx := testCtx()
	train := synthData(10, 2000, 5, 32)
	clf, err := Train(ctx, train, Config{K: 5, B: 8, C: 4, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	queries, _ := synthQueries(100, 5, 34)
	_, stats, err := clf.Classify(queries)
	if err != nil {
		t.Fatal(err)
	}
	if stats.VirtualTime <= 0 {
		t.Errorf("virtual time = %v", stats.VirtualTime)
	}
}

func TestScoreNeighborsUnit(t *testing.T) {
	n := []knn.Neighbor{
		{Index: 0, Dist: 0.1, Label: +1},
		{Index: 1, Dist: 0.2, Label: -1},
		{Index: 2, Dist: 0.5, Label: -1},
	}
	got := ScoreNeighbors(n, 1e-9)
	// +1/0.1 - 1/0.2 - 1/0.5 = 10 - 5 - 2 = 3 (eps negligible here).
	if math.Abs(got-3) > 1e-6 {
		t.Errorf("score = %v, want ~3", got)
	}
	if s := ScoreNeighbors(nil, 1e-9); s != 0 {
		t.Errorf("empty score = %v", s)
	}
	// A coincident positive is bounded by 1/eps, not infinite.
	n[0].Dist = 0
	if s := ScoreNeighbors(n, DefaultEpsilon); s < 50 || s > 1/DefaultEpsilon {
		t.Errorf("coincident positive score = %v, want in (50, %v]", s, 1/DefaultEpsilon)
	}
}

func TestTheta(t *testing.T) {
	ctx := testCtx()
	train := synthData(10, 500, 3, 35)
	clf, err := Train(ctx, train, Config{K: 5, B: 4, C: 2, Seed: 36, Theta: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	queries, _ := synthQueries(40, 3, 37)
	res, _, err := clf.Classify(queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Label != -1 {
			t.Error("with theta = +Inf nothing may be labelled duplicate")
		}
	}
}
