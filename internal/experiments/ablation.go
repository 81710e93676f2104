package experiments

import (
	"time"

	"adrdedup/internal/core"
	"adrdedup/internal/eval"
	"adrdedup/internal/knn"
)

// AblationParams configures the design-choice ablations DESIGN.md calls out.
type AblationParams struct {
	TrainSize, TestSize int
	Seed                int64
}

func (p AblationParams) withDefaults() AblationParams {
	if p.TrainSize <= 0 {
		p.TrainSize = 200_000
	}
	if p.TestSize <= 0 {
		p.TestSize = 10_000
	}
	return p
}

// AblationRow is one variant measurement.
type AblationRow struct {
	Variant                 string
	AUPR                    float64
	IntraClusterComparisons int64
	CrossClusterComparisons int64
	AdditionalClusters      int64
	ExecutionTime           time.Duration
}

// Ablation runs the Fast kNN design ablations:
//
//   - "fast-knn": the full method;
//   - "majority-vote": Eq. 1 voting instead of Eq. 5 inverse-distance
//     weighting (the imbalance-robust scoring is the point of §4.3);
//   - "no-partition-pruning": cross-cluster stage searches every partition
//     (the naive strategy of §4.3.1) instead of applying Algorithm 1;
//   - "no-positive-shortcut": cross-cluster stage runs for every testing
//     pair instead of only those whose top-k contains a positive
//     (observations 1-3);
//   - "random-partition": uniform random partitioning instead of k-means
//     Voronoi cells (observation 4 loses its geometric basis, so every
//     partition must be searched).
func Ablation(env *Env, p AblationParams) ([]AblationRow, error) {
	p = p.withDefaults()
	data, err := env.BuildPairData(p.TrainSize, p.TestSize, exhibitHardFraction, p.Seed)
	if err != nil {
		return nil, err
	}
	base := core.Config{K: exhibitK, B: exhibitB, C: exhibitC, Seed: p.Seed}

	variants := []struct {
		name string
		cfg  core.Config
		vote bool
	}{
		{name: "fast-knn", cfg: base},
		{name: "majority-vote", cfg: base, vote: true},
		{name: "no-partition-pruning", cfg: withFlag(base, func(c *core.Config) { c.DisablePartitionPruning = true })},
		{name: "no-positive-shortcut", cfg: withFlag(base, func(c *core.Config) { c.DisablePositiveShortcut = true })},
		{name: "random-partition", cfg: withFlag(base, func(c *core.Config) { c.RandomPartition = true })},
	}

	var out []AblationRow
	for _, v := range variants {
		clf, err := core.Train(env.Ctx, data.Train, v.cfg)
		if err != nil {
			return nil, err
		}
		results, stats, err := clf.Classify(data.TestVecs)
		if err != nil {
			return nil, err
		}
		scores := make([]float64, len(results))
		for _, r := range results {
			if v.vote {
				scores[r.ID] = voteScore(r.Neighbors)
			} else {
				scores[r.ID] = r.Score
			}
		}
		aupr, err := eval.AUPR(scores, data.TestLabels)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{
			Variant:                 v.name,
			AUPR:                    aupr,
			IntraClusterComparisons: stats.IntraClusterComparisons,
			CrossClusterComparisons: stats.CrossClusterComparisons,
			AdditionalClusters:      stats.AdditionalClustersChecked,
			ExecutionTime:           stats.VirtualTime,
		})
	}
	return out, nil
}

func withFlag(cfg core.Config, set func(*core.Config)) core.Config {
	set(&cfg)
	return cfg
}

// voteScore is the Eq. 1 majority vote: the sum of neighbor labels. It
// ignores distances, which is exactly what makes it fragile under extreme
// imbalance.
func voteScore(neighbors []knn.Neighbor) float64 {
	s := 0.0
	for _, n := range neighbors {
		s += float64(n.Label)
	}
	return s
}
