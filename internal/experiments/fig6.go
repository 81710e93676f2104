package experiments

import (
	"time"

	"adrdedup/internal/core"
	"adrdedup/internal/eval"
)

// Fig6Params configures the k sweep (paper Fig. 6: AUPR nearly flat in k;
// execution time grows ~31% from k=5 to k=21).
type Fig6Params struct {
	// ks are the neighbor counts to sweep (paper: 5, 9, 13, 17, 21).
	ks []int
	// TrainSize and TestSize (paper: 3M and 10,000; default 300k / 10k).
	TrainSize, TestSize int
	Seed                int64
}

func (p Fig6Params) withDefaults() Fig6Params {
	if len(p.ks) == 0 {
		p.ks = []int{5, 9, 13, 17, 21}
	}
	if p.TrainSize <= 0 {
		p.TrainSize = 300_000
	}
	if p.TestSize <= 0 {
		p.TestSize = 10_000
	}
	return p
}

// Fig6Point is one k measurement.
type Fig6Point struct {
	K             int
	AUPR          float64
	ExecutionTime time.Duration // virtual cluster time of classification
	CrossChecked  int64         // additional partitions examined
}

// Fig6 sweeps k, reporting AUPR (Fig. 6(a)) and classification execution
// time (Fig. 6(b)).
func Fig6(env *Env, p Fig6Params) ([]Fig6Point, error) {
	p = p.withDefaults()
	data, err := env.BuildPairData(p.TrainSize, p.TestSize, exhibitHardFraction, p.Seed)
	if err != nil {
		return nil, err
	}
	var out []Fig6Point
	for _, k := range p.ks {
		clf, err := core.Train(env.Ctx, data.Train, core.Config{K: k, B: exhibitB, C: exhibitC, Seed: p.Seed})
		if err != nil {
			return nil, err
		}
		results, stats, err := clf.Classify(data.TestVecs)
		if err != nil {
			return nil, err
		}
		scores := make([]float64, len(results))
		for _, r := range results {
			scores[r.ID] = r.Score
		}
		aupr, err := eval.AUPR(scores, data.TestLabels)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig6Point{
			K:             k,
			AUPR:          aupr,
			ExecutionTime: stats.VirtualTime,
			CrossChecked:  stats.AdditionalClustersChecked,
		})
	}
	return out, nil
}
