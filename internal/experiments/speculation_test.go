package experiments

import (
	"testing"

	"adrdedup/internal/cluster"
)

// TestSpeculationSpeedupFloor pins the headline property of the straggler
// exhibit: with the default parameters, speculative execution cuts the
// skewed workload's virtual makespan by at least 1.5x, across seeds.
func TestSpeculationSpeedupFloor(t *testing.T) {
	env := testEnv(t)
	for _, seed := range []int64{1, 2, 7} {
		rows, err := Speculation(env, SpeculationParams{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := SpeculationSpeedup(rows); got < 1.5 {
			t.Errorf("seed %d: makespan reduction %.2fx, want >= 1.5x (rows %+v)", seed, got, rows)
		}
		for _, r := range rows {
			if !r.Speculation && (r.SpeculativeLaunches != 0 || r.SpeculativeWins != 0 || r.WastedTime != 0) {
				t.Errorf("seed %d: speculation-off row has speculative accounting: %+v", seed, r)
			}
			if r.Speculation && r.SpeculativeWins > r.SpeculativeLaunches {
				t.Errorf("seed %d: wins %d > launches %d", seed, r.SpeculativeWins, r.SpeculativeLaunches)
			}
		}
	}
}

// BenchmarkSpeculationSkew runs the straggler-mitigation exhibit under
// `go test -bench`: the reported speedup metric is the off/on virtual makespan
// ratio of the injected-straggler workload.
func BenchmarkSpeculationSkew(b *testing.B) {
	env, err := NewEnv(EnvConfig{
		Cluster: cluster.Config{Executors: 8, CoresPerExecutor: 1, SchedulerOverheadMS: 2, ShuffleLatencyMS: 1},
		Corpus:  SmallCorpus(1),
		Seed:    2,
	})
	if err != nil {
		b.Fatal(err)
	}
	var rows []SpeculationRow
	for i := 0; i < b.N; i++ {
		rows, err = Speculation(env, SpeculationParams{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	var on, off, launches, wins float64
	for _, r := range rows {
		if r.Speculation {
			on = r.ExecutionTime.Seconds()
			launches = float64(r.SpeculativeLaunches)
			wins = float64(r.SpeculativeWins)
		} else {
			off = r.ExecutionTime.Seconds()
		}
	}
	b.ReportMetric(SpeculationSpeedup(rows), "speedup")
	b.ReportMetric(off, "makespan-off-s")
	b.ReportMetric(on, "makespan-on-s")
	b.ReportMetric(launches, "spec-launches")
	b.ReportMetric(wins, "spec-wins")
}
