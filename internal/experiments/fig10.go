package experiments

import (
	"time"

	"adrdedup/internal/adrgen"
	"adrdedup/internal/core"
)

// Fig10Params configures the executor scaling sweep (paper Fig. 10:
// execution time falls with executor count but flattens as coordination and
// shuffle overheads grow; the pairwise-distance stage is a small share of
// the total and speeds up near-linearly).
type Fig10Params struct {
	// executors are the executor counts to sweep (paper: 5-25).
	executors []int
	// trainSizes per curve (paper: 2M, 3M, 4M).
	trainSizes []int
	testSize   int
	seed       int64
	// distancePairs is the pair count of the pairwise-distance timing of
	// Fig. 10(b) (the paper computes distances over the 10,382-report
	// corpus).
	distancePairs int
}

// fig10B and fig10C are the paper's Fig. 10 setting: b = 48, block number 5.
const (
	fig10B = 48
	fig10C = 5
)

// Fig10Point is one (executors, training size) measurement.
type Fig10Point struct {
	Executors     int
	TrainPairs    int
	ExecutionTime time.Duration // Fig. 10(a): classification
	DistanceTime  time.Duration // Fig. 10(b): pairwise distance computing
}

// Fig10 sweeps executor counts. For each executor count the engine is
// rebuilt, so virtual makespans reflect the slot count.
func Fig10(env *Env, p Fig10Params) ([]Fig10Point, error) {
	baseCfg := env.Ctx.Cluster().Config()
	var out []Fig10Point
	for _, execs := range p.executors {
		cfg := baseCfg
		cfg.Executors = execs
		env.ResetEngine(cfg)

		// Fig. 10(b): time the pairwise distance stage once per
		// executor count.
		distIDs, err := env.Corpus.SamplePairs(adrgen.PairSampleOptions{
			Total: p.distancePairs, Positives: env.TrainDups,
			HardFraction: exhibitHardFraction, Seed: p.seed + 99,
		})
		if err != nil {
			return nil, err
		}
		before := env.Ctx.Cluster().VirtualElapsed()
		if _, err := env.vectorize(distIDs); err != nil {
			return nil, err
		}
		distTime := env.Ctx.Cluster().VirtualElapsed() - before

		for _, size := range p.trainSizes {
			data, err := env.BuildPairData(size, p.testSize, exhibitHardFraction, p.seed)
			if err != nil {
				return nil, err
			}
			_, stats, err := classify(env, data, core.Config{K: exhibitK, B: fig10B, C: fig10C, Seed: p.seed})
			if err != nil {
				return nil, err
			}
			out = append(out, Fig10Point{
				Executors:     execs,
				TrainPairs:    size,
				ExecutionTime: stats.VirtualTime,
				DistanceTime:  distTime,
			})
		}
	}
	return out, nil
}

func fig10Tables(points []Fig10Point) []Table {
	t := newTable("Fig 10: execution time by executor count (b=48, block number 5)",
		"executors", "train pairs", "exec time", "distance time")
	for _, pt := range points {
		t.add(count(pt.Executors), count(pt.TrainPairs), virtual(pt.ExecutionTime), virtual(pt.DistanceTime))
	}
	return []Table{t}
}
