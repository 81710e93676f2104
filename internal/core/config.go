// Package core implements the paper's contribution: the Fast kNN
// classification method for duplicate detection over highly imbalanced
// report-pair datasets (§4.3), built on the Spark-like RDD engine.
//
// The training pairs T are Voronoi-partitioned with k-means into b clusters;
// each testing pair s is assigned to its nearest cluster. Classification
// runs in two stages (Algorithm 2):
//
//  1. Intra-cluster: the k nearest neighbors of s among the negative pairs
//     of its own cluster are found with a join on cluster IDs, then merged
//     with its k nearest among *all* positive pairs — positives are few
//     (observation 1), so searching them all is cheap and makes the
//     cross-cluster decision sound.
//  2. Cross-cluster: only when the merged top-k contains a positive pair
//     (observations 2-3) are additional partitions searched, and only those
//     partitions whose separating hyperplane lies closer to s than its
//     current k-th neighbor (observation 4, Eq. 7 — Algorithm 1).
//
// Scores follow Eq. 5 (inverse-distance weighting, which neutralizes the
// overwhelming negative majority) and labels follow Eq. 6 (threshold θ).
// The optional testing-set pruning of §4.3.4 drops testing pairs that lie
// outside every positive cluster's radius + f(θ) before classification.
package core

import (
	"errors"
	"fmt"
)

// Config parameterizes the Fast kNN classifier. Zero values take the
// defaults noted per field.
type Config struct {
	// K is the neighbor count (paper sweeps 5-21; default 9). The paper
	// assumes an odd k for the majority vote of Eq. 1; the weighted score
	// of Eq. 5 does not need it, but Validate still rejects even values
	// to stay faithful.
	K int
	// B is the number of k-means clusters the training set is partitioned
	// into (paper sweeps 10-70 and uses 32-200; default 32).
	B int
	// C is the number of partitions the testing set is split into
	// (paper: "block number", 4-30; default 8).
	C int
	// Theta is the Eq. 6 score threshold; pairs scoring >= Theta are
	// labelled duplicates. Default 0.
	Theta float64
	// Epsilon smooths the 1/distance weights of Eq. 5: a neighbor's
	// weight is 1/(dist+Epsilon), bounding coincident-vector weights at
	// 1/Epsilon. The default (DefaultEpsilon) keeps an exact-match
	// neighbor dominant without letting a single coincident pair swamp
	// the score ranking — with a near-zero epsilon one confusable
	// zero-distance negative sends a score to -1e9 and ruins AUPR.
	Epsilon float64
	// KMeansMaxIter bounds the partitioning step. Default 20.
	KMeansMaxIter int
	// Seed drives k-means seeding.
	Seed int64

	// Pruning, when non-nil, enables the §4.3.4 testing-set pruning.
	Pruning *PruningConfig

	// DisablePartitionPruning searches every other partition during the
	// cross-cluster stage instead of applying Algorithm 1's hyperplane
	// bound (the naive strategy of §4.3.1; ablation).
	DisablePartitionPruning bool
	// DisablePositiveShortcut always runs the cross-cluster stage instead
	// of skipping it when the top-k is all-negative (observations 2-3;
	// ablation).
	DisablePositiveShortcut bool
	// RandomPartition replaces k-means Voronoi partitioning with uniform
	// random partitioning (ablation). Because random partitions have no
	// Voronoi property, the hyperplane bound is unsound and the
	// cross-cluster stage degrades to searching every partition.
	RandomPartition bool
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 9
	}
	if c.B <= 0 {
		c.B = 32
	}
	if c.C <= 0 {
		c.C = 8
	}
	if c.Epsilon <= 0 {
		c.Epsilon = DefaultEpsilon
	}
	if c.KMeansMaxIter <= 0 {
		c.KMeansMaxIter = 20
	}
	return c
}

// Validate rejects configurations the classifier cannot run with.
func (c Config) Validate() error {
	if c.K < 0 || c.B < 0 || c.C < 0 {
		return fmt.Errorf("core: negative parameter in config %+v", c)
	}
	k := c.K
	if k == 0 {
		k = 9
	}
	if k%2 == 0 {
		return fmt.Errorf("core: k must be odd, got %d", k)
	}
	if c.Pruning != nil {
		if c.Pruning.Clusters <= 0 {
			return errors.New("core: pruning requires a positive cluster count")
		}
		if c.Pruning.FTheta < 0 {
			return errors.New("core: pruning distance threshold must be non-negative")
		}
	}
	return nil
}

// PruningConfig enables §4.3.4 testing-set pruning: positive training pairs
// are clustered into Clusters groups; a testing pair is kept only when its
// distance to some positive-cluster center is at most that cluster's radius
// plus f(θ).
type PruningConfig struct {
	// Clusters is l, the number of positive-pair clusters (paper: 200).
	Clusters int
	// FTheta is f(θ) expressed as a fraction of the maximum possible
	// pair-vector distance (sqrt(dims) for unit-cube distance vectors),
	// so thresholds are comparable across feature dimensionalities. The
	// paper sweeps 0.3-0.9, where 0.9 keeps nearly the whole testing set.
	FTheta float64
}

// DefaultEpsilon is the default Eq. 5 weight smoothing (weight bound
// 1/0.01 = 100): large enough that a single zero-distance neighbor cannot
// send a score to ±1e9 and wreck the ranking, small enough that near
// matches still weigh far above distant ones.
const DefaultEpsilon = 0.01

// TrainingPair is one labelled report pair: its §4.2 distance vector and its
// duplicate label (+1) or non-duplicate label (-1).
type TrainingPair struct {
	Vec   []float64
	Label int
}
