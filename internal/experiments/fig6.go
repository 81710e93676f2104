package experiments

import (
	"fmt"
	"time"

	"adrdedup/internal/core"
	"adrdedup/internal/eval"
)

// Fig6Params configures the k sweep (paper Fig. 6: AUPR nearly flat in k;
// execution time grows ~31% from k=5 to k=21).
type Fig6Params struct {
	// ks are the neighbor counts to sweep (paper: 5, 9, 13, 17, 21).
	ks []int
	// trainSize and testSize (paper: 3M and 10,000).
	trainSize, testSize int
	seed                int64
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
	data, err := env.BuildPairData(p.trainSize, p.testSize, exhibitHardFraction, p.seed)
	if err != nil {
		return nil, err
	}
	var out []Fig6Point
	for _, k := range p.ks {
		results, stats, err := classify(env, data, core.Config{K: k, B: exhibitB, C: exhibitC, Seed: p.seed})
		if err != nil {
			return nil, err
		}
		aupr, err := eval.AUPR(scores(results), data.TestLabels)
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

// tables is Fig. 6 with the time growth from the smallest k to the largest.
func fig6Tables(points []Fig6Point) []Table {
	t := newTable("Fig 6: effect of k (train=3M-scaled, test=10k-scaled)",
		"k", "AUPR", "exec time", "clusters checked")
	for _, pt := range points {
		t.add(count(pt.K), aupr(pt.AUPR), virtual(pt.ExecutionTime), count(pt.CrossChecked))
	}
	first, last := points[0], points[len(points)-1]
	t.note(fmt.Sprintf("time growth k=%d -> k=%d (paper: 1.31x)", first.K, last.K), speedup(timeRatio(last.ExecutionTime, first.ExecutionTime)))
	return []Table{t}
}
