package experiments

import (
	"time"

	"adrdedup/internal/core"
)

// Fig9Params configures the training-size scalability sweep (paper Fig. 9:
// execution time grows 1.4-2.1x when the training set grows 5x, for block
// numbers 4, 8, 12).
type Fig9Params struct {
	// trainSizes to sweep (paper: 1M-5M).
	trainSizes []int
	// blockNumbers are the testing-set partition counts c (paper: 4, 8, 12).
	blockNumbers []int
	testSize     int
	seed         int64
}

// Fig9Point is one (training size, block number) measurement.
type Fig9Point struct {
	TrainPairs    int
	BlockNumber   int
	ExecutionTime time.Duration
}

// Fig9 sweeps training size per block number, reporting classification
// virtual time.
func Fig9(env *Env, p Fig9Params) ([]Fig9Point, error) {
	var out []Fig9Point
	for _, size := range p.trainSizes {
		data, err := env.BuildPairData(size, p.testSize, exhibitHardFraction, p.seed)
		if err != nil {
			return nil, err
		}
		for _, c := range p.blockNumbers {
			_, stats, err := classify(env, data, core.Config{K: exhibitK, B: exhibitB, C: c, Seed: p.seed})
			if err != nil {
				return nil, err
			}
			out = append(out, Fig9Point{TrainPairs: size, BlockNumber: c, ExecutionTime: stats.VirtualTime})
		}
	}
	return out, nil
}

func fig9Tables(points []Fig9Point) []Table {
	t := newTable("Fig 9: scalability with training set size (b=32, 25 executors)",
		"train pairs", "blocks", "exec time")
	for _, pt := range points {
		t.add(count(pt.TrainPairs), count(pt.BlockNumber), virtual(pt.ExecutionTime))
	}
	return []Table{t}
}
