package experiments

import (
	"time"

	"adrdedup/internal/core"
)

// Fig9Params configures the training-size scalability sweep (paper Fig. 9:
// execution time grows 1.4-2.1x when the training set grows 5x, for block
// numbers 4, 8, 12).
type Fig9Params struct {
	// TrainSizes to sweep (paper: 1M-5M; default 100k-500k).
	TrainSizes []int
	// blockNumbers are the testing-set partition counts c (paper: 4, 8, 12).
	blockNumbers []int
	TestSize     int
	Seed         int64
}

func (p Fig9Params) withDefaults() Fig9Params {
	if len(p.TrainSizes) == 0 {
		p.TrainSizes = []int{100_000, 200_000, 300_000, 400_000, 500_000}
	}
	if len(p.blockNumbers) == 0 {
		p.blockNumbers = []int{4, 8, 12}
	}
	if p.TestSize <= 0 {
		p.TestSize = 10_000
	}
	return p
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
	p = p.withDefaults()
	var out []Fig9Point
	for _, size := range p.TrainSizes {
		data, err := env.BuildPairData(size, p.TestSize, exhibitHardFraction, p.Seed)
		if err != nil {
			return nil, err
		}
		for _, c := range p.blockNumbers {
			clf, err := core.Train(env.Ctx, data.Train, core.Config{K: exhibitK, B: exhibitB, C: c, Seed: p.Seed})
			if err != nil {
				return nil, err
			}
			_, stats, err := clf.Classify(data.TestVecs)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig9Point{TrainPairs: size, BlockNumber: c, ExecutionTime: stats.VirtualTime})
		}
	}
	return out, nil
}
