package core

import (
	"math"
	"math/rand"
	"testing"

	"adrdedup/internal/adrgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/intern"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
)

// TestClassifyOrderIndependent pins that Classify's output for a vector does
// not depend on where the vector sits in its input. One classifier classifies
// a testing set of distinct ADR distance vectors and then a seeded
// permutation of it: each vector's result must be bit-equal, Stats equal
// except VirtualTime, and the committed RecordsProcessed and
// ShuffleBytesWritten equal. The adrdedup Detector relies on it: it sends
// Classify each call's unscored vectors in the order its probe tasks met
// them, not in one global order. Clean, with §4.3.4 pruning, and under task
// failures with speculation.
func TestClassifyOrderIndependent(t *testing.T) {
	train, queries := adrOrderData(t)
	perm := rand.New(rand.NewSource(7)).Perm(len(queries))
	permuted := make([][]float64, len(queries))
	for i, p := range perm {
		permuted[i] = queries[p]
	}
	for _, tc := range []struct {
		name string
		cc   cluster.Config
		cfg  Config
	}{
		{"clean", cluster.Config{}, Config{K: 7, B: 8, C: 4, Seed: 1}},
		{"pruning", cluster.Config{}, Config{K: 7, B: 8, C: 4, Seed: 1, Pruning: &PruningConfig{Clusters: 4, FTheta: 0.4}}},
		{"failures+speculation", cluster.Config{
			FailureRate: 0.3, MaxTaskRetries: 40, Seed: 9,
			Speculation: true, SpeculationQuantile: 0.5, SpeculationMinRuntimeMS: -1,
			StragglerRate: 0.1, StragglerRealDelayMS: 1,
		}, Config{K: 7, B: 8, C: 4, Seed: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cc.Executors, tc.cc.CoresPerExecutor = 4, 2
			cl := cluster.New(tc.cc)
			defer cl.Close()
			clf, err := Train(rdd.NewContext(cl), train, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			classify := func(vecs [][]float64) ([]Result, Stats, cluster.MetricsSnapshot) {
				before := cl.Metrics().Snapshot()
				res, st, err := clf.Classify(vecs)
				if err != nil {
					t.Fatal(err)
				}
				after := cl.Metrics().Snapshot()
				st.VirtualTime = 0
				return res, st, cluster.MetricsSnapshot{
					RecordsProcessed:         after.RecordsProcessed - before.RecordsProcessed,
					ShuffleBytesWritten:      after.ShuffleBytesWritten - before.ShuffleBytesWritten,
					TaskFailures:             after.TaskFailures - before.TaskFailures,
					SpeculativeTasksLaunched: after.SpeculativeTasksLaunched - before.SpeculativeTasksLaunched,
				}
			}
			want, wantStats, wantM := classify(queries)
			got, gotStats, gotM := classify(permuted)
			for i, p := range perm {
				g, w := got[i], want[p]
				g.ID, w.ID = 0, 0
				if err := sameResults([]Result{g}, []Result{w}); err != nil {
					t.Fatalf("vector %d, at %d after the permutation: %v", p, i, err)
				}
			}
			if gotStats != wantStats {
				t.Fatalf("stats %+v after the permutation, %+v before", gotStats, wantStats)
			}
			if gotM.RecordsProcessed != wantM.RecordsProcessed || gotM.ShuffleBytesWritten != wantM.ShuffleBytesWritten {
				t.Fatalf("committed %d records and %d shuffle bytes after the permutation, %d and %d before",
					gotM.RecordsProcessed, gotM.ShuffleBytesWritten, wantM.RecordsProcessed, wantM.ShuffleBytesWritten)
			}
			if tc.cfg.Pruning != nil && wantStats.PrunedPairs == 0 {
				t.Fatal("no vector pruned; the pruning case is vacuous")
			}
			if tc.cc.FailureRate > 0 {
				for _, m := range []cluster.MetricsSnapshot{wantM, gotM} {
					if m.TaskFailures == 0 || m.SpeculativeTasksLaunched == 0 {
						t.Fatalf("faults did not fire: %d task failures, %d speculative tasks", m.TaskFailures, m.SpeculativeTasksLaunched)
					}
				}
			}
			t.Logf("%d vectors, %d pruned", len(queries), wantStats.PrunedPairs)
		})
	}
}

// adrOrderData returns a training set sampled from a generated ADR corpus and,
// as testing set, the distinct distance vectors (equal bits merged) of every
// pair between its last 20 reports and the rest, in (B, A) order. Those
// vectors fall on the lattice Detect classifies, ties included.
func adrOrderData(t *testing.T) ([]TrainingPair, [][]float64) {
	t.Helper()
	const reports, arriving = 800, 20
	corpus := adrgen.Generate(adrgen.Config{NumReports: reports, DuplicatePairs: 30, Seed: 4})
	ctx := testCtx()
	defer ctx.Cluster().Close()
	feats, err := pairdist.ExtractAllWith(ctx, intern.New(), corpus.Reports, 4)
	if err != nil {
		t.Fatal(err)
	}
	labelled, err := corpus.SamplePairs(adrgen.PairSampleOptions{Total: 600, HardFraction: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]pairdist.IDPair, len(labelled))
	for i, p := range labelled {
		ids[i] = pairdist.IDPair{A: p.A, B: p.B, Label: p.Label}
	}
	recs, err := pairdist.ComputeVectors(ctx, feats, ids, 4)
	if err != nil {
		t.Fatal(err)
	}
	train := make([]TrainingPair, len(recs))
	for i, r := range recs {
		train[i] = TrainingPair{Vec: r.Vec, Label: r.Label}
	}

	var queries [][]float64
	seen := make(map[[pairdist.Dims]uint64]bool)
	for b := reports - arriving; b < reports; b++ {
		for a := 0; a < b; a++ {
			v := pairdist.Distance(feats[a], feats[b])
			var k [pairdist.Dims]uint64
			for j, x := range v {
				k[j] = math.Float64bits(x)
			}
			if !seen[k] {
				seen[k] = true
				queries = append(queries, v)
			}
		}
	}
	return train, queries
}
