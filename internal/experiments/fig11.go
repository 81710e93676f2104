package experiments

import (
	"time"

	"adrdedup/internal/core"
)

// Fig11Params configures the testing-set pruning sweep (paper Fig. 11:
// thresholds 0.3/0.5/0.7/0.9 keep ~65/73/75/~100% of the testing set and cut
// detection time to 35-65% of the unpruned run, without ever pruning a true
// duplicate).
type Fig11Params struct {
	// thresholds are the f(θ) values to sweep.
	thresholds []float64
	// trainSize (paper: 1,000,000 with 266 positives) and testSize (paper:
	// 204,736).
	trainSize, testSize int
	// positiveClusters is l (paper: 200).
	positiveClusters int
	seed             int64
}

const (
	// fig11B is the exhibit's training cluster number.
	fig11B = 40
	// fig11HardFraction: Fig. 11's testing set is dominated by near-miss
	// pairs (the paper prunes 0-35% across thresholds, so most pairs sit
	// near the positive region); sample accordingly.
	fig11HardFraction = 0.8
)

// Fig11Point is one pruning-threshold measurement.
type Fig11Point struct {
	// Threshold is f(θ); a negative value denotes the unpruned baseline.
	Threshold float64
	// IncludedFraction is the share of testing pairs kept for
	// classification.
	IncludedFraction float64
	// DetectionTime is the classification virtual time.
	DetectionTime time.Duration
	// TrueDuplicatesPruned counts ground-truth duplicates lost to
	// pruning (the paper reports zero at every threshold).
	TrueDuplicatesPruned int
}

// Fig11 sweeps the pruning threshold, leading with an unpruned baseline row
// (Threshold = -1).
func Fig11(env *Env, p Fig11Params) ([]Fig11Point, error) {
	data, err := env.BuildPairData(p.trainSize, p.testSize, fig11HardFraction, p.seed)
	if err != nil {
		return nil, err
	}
	run := func(threshold float64, pruning *core.PruningConfig) (Fig11Point, error) {
		results, stats, err := classify(env, data, core.Config{
			K: exhibitK, B: fig11B, C: exhibitC, Seed: p.seed, Pruning: pruning,
		})
		if err != nil {
			return Fig11Point{}, err
		}
		point := Fig11Point{
			Threshold:        threshold,
			IncludedFraction: 1 - float64(stats.PrunedPairs)/float64(stats.TestPairs),
			DetectionTime:    stats.VirtualTime,
		}
		for _, r := range results {
			if r.Pruned && data.TestLabels[r.ID] == +1 {
				point.TrueDuplicatesPruned++
			}
		}
		return point, nil
	}

	baseline, err := run(-1, nil)
	if err != nil {
		return nil, err
	}
	out := []Fig11Point{baseline}
	for _, th := range p.thresholds {
		point, err := run(th, &core.PruningConfig{Clusters: p.positiveClusters, FTheta: th})
		if err != nil {
			return nil, err
		}
		out = append(out, point)
	}
	return out, nil
}

func fig11Tables(points []Fig11Point) []Table {
	t := newTable("Fig 11: testing-set pruning (threshold -1 = no pruning)",
		"f(theta)", "included", "detection time", "true duplicates lost")
	for _, pt := range points {
		t.add(ratio(pt.Threshold, 1), percent(pt.IncludedFraction), virtual(pt.DetectionTime), count(pt.TrueDuplicatesPruned))
	}
	return []Table{t}
}
