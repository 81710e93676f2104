package experiments

import (
	"testing"

	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
)

// TestEveryStageChargesCountedCompute: each stage pairdist.ComputeVectors and
// core.Classify run is charged the work its tasks counted, so none of them
// reaches virtual time as pure overhead.
func TestEveryStageChargesCountedCompute(t *testing.T) {
	env := testEnv(t)
	cl := env.Ctx.Cluster()
	since := func(from int) []cluster.StageStats { return cl.StageHistory()[from:] }
	check := func(what string, stages []cluster.StageStats) {
		t.Helper()
		if len(stages) == 0 {
			t.Fatalf("%s ran no stage", what)
		}
		for _, s := range stages {
			if s.ComputeDuration <= 0 {
				t.Errorf("%s: stage %s charged no counted compute", what, s.Name)
			}
		}
	}

	before := len(cl.StageHistory())
	data, err := env.BuildPairData(8_000, 1_000, exhibitHardFraction, 3)
	if err != nil {
		t.Fatal(err)
	}
	check("ComputeVectors", since(before))

	clf, err := core.Train(env.Ctx, data.Train, core.Config{K: exhibitK, B: 8, C: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	before = len(cl.StageHistory())
	_, stats, err := clf.Classify(data.TestVecs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CrossClusterComparisons == 0 {
		t.Fatal("no testing pair crossed; the cross-cluster stages did not run")
	}
	check("Classify", since(before))
}
