package experiments

import (
	"testing"

	"adrdedup/internal/cluster"
)

// TestRecoveryOverheadCeiling pins the recovery exhibit to a sane band
// across seeds: executor kills must actually happen and cost something
// (ratio > 1), but lineage recovery recomputes only lost map partitions, so
// the faulty makespan stays within 5x of the clean one — nowhere near the
// rerun-everything worst case.
func TestRecoveryOverheadCeiling(t *testing.T) {
	env := testEnv(t)
	for _, seed := range []int64{1, 2, 7} {
		rows, err := Recovery(env, RecoveryParams{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ratio := RecoveryOverhead(rows)
		if ratio <= 1.0 {
			t.Errorf("seed %d: overhead ratio %.2fx, want > 1 (kills must cost something): %+v", seed, ratio, rows)
		}
		if ratio > 5.0 {
			t.Errorf("seed %d: overhead ratio %.2fx exceeds the 5x ceiling: %+v", seed, ratio, rows)
		}
		for _, r := range rows {
			if !r.Faulty && (r.ExecutorFailures != 0 || r.RecomputedTasks != 0) {
				t.Errorf("seed %d: clean row has recovery accounting: %+v", seed, r)
			}
			if r.Faulty {
				if r.ExecutorFailures == 0 {
					t.Errorf("seed %d: faulty row lost no executors; exhibit is vacuous", seed)
				}
				if r.RecomputedTasks > r.MapOutputsLost {
					t.Errorf("seed %d: recomputed %d tasks for %d lost outputs", seed, r.RecomputedTasks, r.MapOutputsLost)
				}
			}
		}
	}
}

// BenchmarkRecoveryOverhead runs the executor-loss recovery exhibit under
// `go test -bench`: the overhead metric is the faulty/clean virtual makespan ratio
// of the shuffle workload under deterministic kills, averaged over 3 seeds.
func BenchmarkRecoveryOverhead(b *testing.B) {
	env, err := NewEnv(EnvConfig{
		Cluster: cluster.Config{Executors: 8, CoresPerExecutor: 1, SchedulerOverheadMS: 2, ShuffleLatencyMS: 1},
		Corpus:  SmallCorpus(1),
		Seed:    2,
	})
	if err != nil {
		b.Fatal(err)
	}
	seeds := []int64{1, 2, 7}
	var overhead, kills, lost, recomputed, resub float64
	for i := 0; i < b.N; i++ {
		overhead, kills, lost, recomputed, resub = 0, 0, 0, 0, 0
		for _, seed := range seeds {
			rows, err := Recovery(env, RecoveryParams{Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			overhead += RecoveryOverhead(rows)
			for _, r := range rows {
				if r.Faulty {
					kills += float64(r.ExecutorFailures)
					lost += float64(r.MapOutputsLost)
					recomputed += float64(r.RecomputedTasks)
					resub += float64(r.RecomputedStages)
				}
			}
		}
	}
	n := float64(len(seeds))
	b.ReportMetric(overhead/n, "overhead-ratio")
	b.ReportMetric(kills/n, "executor-kills")
	b.ReportMetric(lost/n, "map-outputs-lost")
	b.ReportMetric(recomputed/n, "recomputed-tasks")
	b.ReportMetric(resub/n, "recomputed-stages")
}
