package cluster_test

import (
	"reflect"
	"testing"

	"adrdedup/internal/adrgen"
	"adrdedup/internal/candgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/intern"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
)

// TestZeroedTablesComeBackZero drives the two kernels that keep zeroed
// tables in the worker scratch — the candgen probe's count table and the
// pairdist Scorer's mark table — through a clean engine, through task
// failures with speculative attempts, and through executor kills. Neither
// kernel clears its table per task, so each must hand every scratch back
// to the pool all zero, retried, losing and failed attempts included, and
// every faulty run must return the clean run's pairs and vectors.
func TestZeroedTablesComeBackZero(t *testing.T) {
	const n, arriving = 400, 60
	reports := adrgen.Generate(adrgen.Config{NumReports: n, DuplicatePairs: 30, Seed: 5}).Reports
	feats, err := pairdist.ExtractAllWith(rdd.NewContext(cluster.New(cluster.Config{})), intern.New(), reports, 4)
	if err != nil {
		t.Fatal(err)
	}
	sigs, _ := candgen.Signatures(feats)

	run := func(cfg cluster.Config) ([]pairdist.IDPair, []pairdist.PairRecord, *cluster.Cluster) {
		cl := cluster.New(cfg)
		ctx := rdd.NewContext(cl)
		ix, err := candgen.NewIndex(0.3)
		if err != nil {
			t.Fatal(err)
		}
		ix.Append(sigs[:n-arriving])
		ix.Append(sigs[n-arriving:])
		pairs, _, err := ix.Probe(ctx, n-arriving, 8)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := pairdist.ComputeVectors(ctx, feats, pairs, 8)
		if err != nil {
			t.Fatal(err)
		}
		return pairs, recs, cl
	}
	base := cluster.Config{Executors: 4, CoresPerExecutor: 2, RealWorkers: 3, MaxTaskRetries: 80, Seed: 7}
	wantPairs, wantRecs, _ := run(base)
	if len(wantPairs) == 0 {
		t.Fatal("no pairs; the test is vacuous")
	}

	faulty := base
	faulty.FailureRate = 0.3
	faulty.Speculation = true
	faulty.StragglerRate = 0.3
	// Equal partitions cost equal virtual time, so at the default 0.75
	// quantile the stragglers are still running only once they all finish
	// together; at 0.5 the others fix the median first and get copied.
	faulty.SpeculationQuantile = 0.5
	kills := base
	kills.ExecutorFailureRate = 0.4
	kills.BlacklistAfterFailures = 1000
	for _, tc := range []struct {
		name   string
		cfg    cluster.Config
		faults func(cluster.MetricsSnapshot) int64
	}{
		{"clean", base, func(cluster.MetricsSnapshot) int64 { return 1 }},
		{"task failures and speculation", faulty, func(m cluster.MetricsSnapshot) int64 {
			return min(m.TaskFailures, m.SpeculativeTasksLaunched)
		}},
		{"executor kills", kills, func(m cluster.MetricsSnapshot) int64 { return m.ExecutorFailures }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pairs, recs, cl := run(tc.cfg)
			if tc.faults(cl.Metrics().Snapshot()) == 0 {
				t.Fatalf("no fault of the kind injected: %+v", cl.Metrics().Snapshot())
			}
			if !reflect.DeepEqual(pairs, wantPairs) || !reflect.DeepEqual(recs, wantRecs) {
				t.Fatalf("%d pairs and %d vectors, the clean run's %d and %d differ", len(pairs), len(recs), len(wantPairs), len(wantRecs))
			}
			pooled := cl.PooledScratches()
			used := 0
			for i, ws := range pooled {
				counts, marks := ws.ZeroedInt32s(0), ws.ZeroedBytes(0)
				if cap(counts) > 0 && cap(marks) > 0 {
					used++
				}
				for id, c := range counts[:cap(counts)] {
					if c != 0 {
						t.Fatalf("pooled scratch %d: count table holds %d at record %d", i, c, id)
					}
				}
				for id, m := range marks[:cap(marks)] {
					if m != 0 {
						t.Fatalf("pooled scratch %d: mark table holds %#x at ID %d", i, m, id)
					}
				}
			}
			if used == 0 {
				t.Fatalf("none of %d pooled scratches held both tables; the check is vacuous", len(pooled))
			}
		})
	}
}
