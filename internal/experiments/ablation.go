package experiments

import (
	"time"

	"adrdedup/internal/core"
	"adrdedup/internal/eval"
	"adrdedup/internal/knn"
)

// AblationRow is one variant measurement.
type AblationRow struct {
	Variant                 string
	AUPR                    float64
	IntraClusterComparisons int64
	CrossClusterComparisons int64
	AdditionalClusters      int64
	ExecutionTime           time.Duration
}

// Ablation runs the Fast kNN design ablations DESIGN.md calls out:
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
func Ablation(env *Env, trainSize, testSize int, seed int64) ([]AblationRow, error) {
	data, err := env.BuildPairData(trainSize, testSize, exhibitHardFraction, seed)
	if err != nil {
		return nil, err
	}
	base := core.Config{K: exhibitK, B: exhibitB, C: exhibitC, Seed: seed}

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
		results, stats, err := classify(env, data, v.cfg)
		if err != nil {
			return nil, err
		}
		s := scores(results)
		if v.vote {
			for _, r := range results {
				s[r.ID] = voteScore(r.Neighbors)
			}
		}
		aupr, err := eval.AUPR(s, data.TestLabels)
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

func ablationTables(rows []AblationRow) []Table {
	t := newTable("Ablations of Fast kNN design choices",
		"variant", "AUPR", "intra comparisons", "cross comparisons", "add. clusters", "exec time")
	for _, r := range rows {
		t.add(text(r.Variant), aupr(r.AUPR), count(r.IntraClusterComparisons), count(r.CrossClusterComparisons),
			count(r.AdditionalClusters), virtual(r.ExecutionTime))
	}
	return []Table{t}
}
