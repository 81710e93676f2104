package core

import (
	"fmt"
	"math"

	"adrdedup/internal/knn"
	"adrdedup/internal/rdd"
	"adrdedup/internal/vecmath"
)

// Classify labels a batch of testing pair vectors with Algorithm 2. The
// returned results are ordered by input index. Classify may be called
// repeatedly (the cached training blocks are reused) but not concurrently
// with itself, matching the sequential job submission of a Spark driver.
func (c *Classifier) Classify(test [][]float64) ([]Result, Stats, error) {
	var stats Stats
	stats.TestPairs = len(test)
	if len(test) == 0 {
		return nil, stats, nil
	}
	for i, v := range test {
		if len(v) != c.dim {
			return nil, stats, fmt.Errorf("core: test pair %d has dim %d, want %d", i, len(v), c.dim)
		}
	}

	startVirtual := c.ctx.Cluster().VirtualElapsed()

	// §4.3.4 testing-set pruning.
	keep, err := c.pruneMask(test)
	if err != nil {
		return nil, stats, err
	}

	// IDs are exactly 0..len(test)-1, so every result has its slot.
	results := make([]Result, len(test))
	ids := make([]int, 0, len(test))
	for i, k := range keep {
		if k {
			ids = append(ids, i)
		} else {
			stats.PrunedPairs++
			results[i] = Result{ID: i, Score: math.Inf(-1), Label: -1, Pruned: true}
		}
	}
	if len(ids) > 0 {
		if err := c.classifyItems(test, ids, results, &stats); err != nil {
			return nil, stats, err
		}
	}

	stats.VirtualTime = c.ctx.Cluster().VirtualElapsed() - startVirtual
	return results, stats, nil
}

// pruneMask returns, per testing pair, whether it survives §4.3.4 pruning.
// With pruning disabled (or no positive clusters) every pair survives. The
// verdicts are a stage of their own, not a filter fused into the stage-1
// join: a call whose every pair is pruned then runs no join at all.
func (c *Classifier) pruneMask(test [][]float64) ([]bool, error) {
	if c.cfg.Pruning == nil || len(c.pruneCenters) == 0 {
		keep := make([]bool, len(test))
		for i := range keep {
			keep[i] = true
		}
		return keep, nil
	}
	centers := c.pruneCenters
	radii := c.pruneRadii
	// f(θ) is a fraction of the space diameter; convert to a distance.
	slack := c.cfg.Pruning.FTheta * math.Sqrt(float64(c.dim))
	keep, err := rdd.Map(rdd.Parallelize(c.ctx, test, c.cfg.C), func(t []float64) bool {
		for ci, cp := range centers {
			if vecmath.Dist(t, cp) <= radii[ci]+slack {
				return true
			}
		}
		return false
	}).SetName("S.pruned").Collect()
	if err != nil {
		return nil, fmt.Errorf("core: pruning testing set: %w", err)
	}
	return keep, nil
}

// classifyItems runs the two comparison stages of Algorithm 2 over the
// surviving testing pairs test[ids], writes each one's result to
// results[ID], and adds the work the committed rows report to stats.
func (c *Classifier) classifyItems(test [][]float64, ids []int, results []Result, stats *Stats) error {
	k := c.cfg.K

	// Lines 2-4: split the testing pairs into C partitions and key each by
	// its nearest Voronoi cell. The map is narrow, so it runs in the map
	// tasks of the join's shuffle.
	centers := c.centers
	sKeyed := rdd.Map(rdd.Parallelize(c.ctx, ids, c.cfg.C), func(i int) rdd.Pair[int, sItem] {
		cl, _ := vecmath.ArgMinDist(test[i], centers)
		return rdd.KV(cl, sItem{ID: i, Vec: test[i], Cluster: cl})
	}).SetName("S.byCluster")

	// Stage 1 (lines 6-12): join testing pairs with their own cluster's
	// negative block, take the local top-k, fold in the positives, and
	// decide whether cross-cluster search is needed.
	// The join is partitioned per training cluster (b partitions), so a
	// task's working set is one cluster's block: small cluster numbers
	// mean big blocks, which is what overruns executor memory in the
	// paper's Fig. 8(b).
	// The stage-1 output feeds three consumers (the no-cross results, the
	// crossing pairs' lists and the cross-cluster fanout), so it is
	// persisted — exactly the distributed memory management the paper
	// credits Spark for (§2.2); without it the intra-cluster searches would
	// run again for each.
	joined := rdd.Join(sKeyed, c.negBlocks, len(c.centers)).SetName("S⋈T-neg")
	stage1 := rdd.Map(joined, func(row rdd.Pair[int, rdd.Tuple2[sItem, knn.Groups]]) stage1Out {
		s := row.Value.A
		// One buffer over the own block and straight on over the
		// positive pairs (lines 9-10): the negatives' k-th distance
		// already bounds the positive search, and the result is the top k
		// of the union, which is what merging two top-k lists gives.
		top := knn.NewTopK(k, make([]knn.Neighbor, 0, k))
		var spent work
		spent.Intra, _ = row.Value.B.Search(&top, s.Vec)
		spent.PosScan, spent.PosSkipped = c.positives.Search(&top, s.Vec)
		neighbors := top.Neighbors()

		out := stage1Out{Item: s, Neighbors: neighbors, Work: spent}
		hasPositive := false
		for _, n := range neighbors {
			if n.Label > 0 {
				hasPositive = true
				break
			}
		}
		// Line 11 (observations 2-3): cross-cluster search is only
		// justified when a positive made it into the current top-k —
		// an all-negative top-k stays all-negative no matter what
		// nearer negatives other clusters hold. Searching is also
		// required when the own cluster could not supply k neighbors.
		out.NeedCross = hasPositive || len(neighbors) < k
		if c.cfg.DisablePositiveShortcut {
			out.NeedCross = true
		}
		if out.NeedCross {
			out.Additional = c.selectPartitions(s, neighbors)
			if len(out.Additional) == 0 {
				out.NeedCross = false
			}
		}
		return out
	}).SetName("S.stage1").WithBytesPerRecord(int64(8*c.dim + 48 + 48*c.cfg.K)).Cache()
	defer stage1.Unpersist()

	// A testing pair that does not cross is final after stage 1: it is
	// scored straight from the cached rows, and only the pairs that cross
	// are shuffled into the merge.
	final := rdd.Map(rdd.Filter(stage1, func(o stage1Out) bool { return !o.NeedCross }),
		func(o stage1Out) scoredRow { return c.score(o.Item.ID, o.Neighbors, o.Work) },
	).SetName("S.final")

	// Stage 2 (lines 12-15): fan crossing queries out to their additional
	// partitions, join with those negative blocks, and merge the per-
	// partition top-k lists back per testing pair.
	crossing := rdd.Filter(stage1, func(o stage1Out) bool { return o.NeedCross })
	base := rdd.Map(crossing, func(o stage1Out) rdd.Pair[int, partial] {
		spent := o.Work
		spent.Additional = int32(len(o.Additional))
		return rdd.KV(o.Item.ID, partial{Neighbors: o.Neighbors, Work: spent})
	}).SetName("S.stage1.neighbors")

	type crossQuery struct {
		ID  int
		Vec []float64
	}
	fanout := rdd.FlatMap(crossing, func(o stage1Out) []rdd.Pair[int, crossQuery] {
		out := make([]rdd.Pair[int, crossQuery], 0, len(o.Additional))
		for _, p := range o.Additional {
			out = append(out, rdd.KV(p, crossQuery{ID: o.Item.ID, Vec: o.Item.Vec}))
		}
		return out
	}).SetName("S.crossFanout")

	crossJoined := rdd.Join(fanout, c.negBlocks, len(c.centers)).SetName("Scross⋈T-neg")
	crossResults := rdd.Map(crossJoined, func(row rdd.Pair[int, rdd.Tuple2[crossQuery, knn.Groups]]) rdd.Pair[int, partial] {
		q := row.Value.A
		top := knn.NewTopK(k, make([]knn.Neighbor, 0, k))
		cross, _ := row.Value.B.Search(&top, q.Vec)
		return rdd.KV(q.ID, partial{Neighbors: top.Neighbors(), Work: work{Cross: cross}})
	}).SetName("S.crossNeighbors")

	// The lists of one testing pair come from different blocks, so they
	// are sorted and share no training index: a linear merge suffices.
	merged := rdd.ReduceByKey(rdd.Union(base, crossResults), func(a, b partial) partial {
		return partial{
			Neighbors: knn.MergeSorted(k, a.Neighbors, b.Neighbors),
			Work:      a.Work.plus(b.Work),
		}
	}, c.cfg.C).SetName("S.finalNeighbors")

	// Line 17 for the pairs that crossed.
	crossed := rdd.Map(merged, func(kv rdd.Pair[int, partial]) scoredRow {
		return c.score(kv.Key, kv.Value.Neighbors, kv.Value.Work)
	}).SetName("S.scored")

	rows, err := rdd.Union(final, crossed).Collect()
	if err != nil {
		return fmt.Errorf("core: classification: %w", err)
	}
	for _, r := range rows {
		results[r.Result.ID] = r.Result
		r.Work.addTo(stats)
	}
	return nil
}

// score is line 17 of Algorithm 2: the Eq. 5 score of a testing pair's final
// neighbors and its Eq. 6 label.
func (c *Classifier) score(id int, neighbors []knn.Neighbor, spent work) scoredRow {
	score := ScoreNeighbors(neighbors, DefaultEpsilon)
	label := -1
	if score >= c.cfg.Theta {
		label = 1
	}
	return scoredRow{
		Result: Result{ID: id, Score: score, Label: label, Neighbors: neighbors},
		Work:   spent,
	}
}

// selectPartitions is Algorithm 1: choose which other partitions must be
// searched for the query's true k nearest neighbors. With Voronoi
// partitioning, partition j can hold a nearer neighbor only when the
// hyperplane separating i from j is closer to s than its current k-th
// neighbor (observation 4, Eq. 7).
func (c *Classifier) selectPartitions(s sItem, neighbors []knn.Neighbor) []int {
	var out []int
	i := s.Cluster
	exhaustive := c.cfg.DisablePartitionPruning || c.cfg.RandomPartition
	dsk := math.Inf(1) // fewer than k neighbors: every partition qualifies
	if len(neighbors) >= c.cfg.K {
		dsk = neighbors[len(neighbors)-1].Dist
	}
	pi := c.centers[i]
	dspi2 := vecmath.SqDist(s.Vec, pi)
	for j := range c.centers {
		if j == i || c.negSizes[j] == 0 {
			continue
		}
		if exhaustive {
			out = append(out, j)
			continue
		}
		pj := c.centers[j]
		dpipj := vecmath.Dist(pi, pj)
		if dpipj == 0 {
			// Coincident centers: the hyperplane is undefined; be
			// conservative and search the partition.
			out = append(out, j)
			continue
		}
		dsh := (vecmath.SqDist(s.Vec, pj) - dspi2) / (2 * dpipj)
		if dsk > dsh {
			out = append(out, j)
		}
	}
	return out
}

// ScoreNeighbors computes the Eq. 5 score: positive neighbors add an
// inverse-distance weight, negative neighbors subtract it. The weight is
// 1/(dist+eps) — smoothly bounded at 1/eps for coincident vectors while
// staying strictly monotone in distance, so ranking among very close
// neighbors is preserved.
func ScoreNeighbors(neighbors []knn.Neighbor, eps float64) float64 {
	var score float64
	for _, n := range neighbors {
		w := 1 / (n.Dist + eps)
		if n.Label > 0 {
			score += w
		} else {
			score -= w
		}
	}
	return score
}
