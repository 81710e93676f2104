package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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

	// Lines 2-4 of Algorithm 2: assign each testing pair to its nearest
	// training cluster and split the survivors into C partitions.
	items, pruned, err := c.assignClusters(test, keep)
	if err != nil {
		return nil, stats, err
	}
	stats.PrunedPairs = len(pruned)

	results := make([]Result, 0, len(test))
	for _, id := range pruned {
		results = append(results, Result{ID: id, Score: math.Inf(-1), Label: -1, Pruned: true})
	}

	if len(items) > 0 {
		classified, err := c.classifyItems(items, &stats)
		if err != nil {
			return nil, stats, err
		}
		results = append(results, classified...)
	}
	slices.SortFunc(results, func(a, b Result) int { return cmp.Compare(a.ID, b.ID) })

	stats.VirtualTime = c.ctx.Cluster().VirtualElapsed() - startVirtual
	return results, stats, nil
}

// pruneMask returns, per testing pair, whether it survives §4.3.4 pruning.
// With pruning disabled (or no positive clusters) every pair survives.
func (c *Classifier) pruneMask(test [][]float64) ([]bool, error) {
	keep := make([]bool, len(test))
	if c.cfg.Pruning == nil || len(c.pruneCenters) == 0 {
		for i := range keep {
			keep[i] = true
		}
		return keep, nil
	}
	centers := c.pruneCenters
	radii := c.pruneRadii
	// f(θ) is a fraction of the space diameter; convert to a distance.
	slack := c.cfg.Pruning.FTheta * math.Sqrt(float64(c.dim))
	type verdict struct {
		ID   int
		Keep bool
	}
	idx := make([]int, len(test))
	for i := range idx {
		idx[i] = i
	}
	src := rdd.Parallelize(c.ctx, idx, c.cfg.C).SetName("S.pruneIDs")
	verdicts, err := rdd.Map(src, func(i int) verdict {
		t := test[i]
		for ci, cp := range centers {
			if vecmath.Dist(t, cp) <= radii[ci]+slack {
				return verdict{ID: i, Keep: true}
			}
		}
		return verdict{ID: i, Keep: false}
	}).SetName("S.pruned").Collect()
	if err != nil {
		return nil, fmt.Errorf("core: pruning testing set: %w", err)
	}
	for _, v := range verdicts {
		keep[v.ID] = v.Keep
	}
	return keep, nil
}

// assignClusters maps surviving testing pairs to their nearest Voronoi cell
// (lines 2-3 of Algorithm 2) and returns the pruned IDs separately.
func (c *Classifier) assignClusters(test [][]float64, keep []bool) ([]sItem, []int, error) {
	var pruned []int
	ids := make([]int, 0, len(test))
	for i, k := range keep {
		if k {
			ids = append(ids, i)
		} else {
			pruned = append(pruned, i)
		}
	}
	if len(ids) == 0 {
		return nil, pruned, nil
	}
	centers := c.centers
	src := rdd.Parallelize(c.ctx, ids, c.cfg.C).SetName("S.ids")
	items, err := rdd.Map(src, func(i int) sItem {
		cl, _ := vecmath.ArgMinDist(test[i], centers)
		return sItem{ID: i, Vec: test[i], Cluster: cl}
	}).SetName("S.assigned").Collect()
	if err != nil {
		return nil, nil, fmt.Errorf("core: assigning testing pairs: %w", err)
	}
	return items, pruned, nil
}

// classifyItems runs the two comparison stages of Algorithm 2 over the
// surviving testing pairs and returns their results, adding the work the
// committed rows report to stats.
func (c *Classifier) classifyItems(items []sItem, stats *Stats) ([]Result, error) {
	k := c.cfg.K
	eps := c.cfg.Epsilon

	// Keyed testing pairs, split into C partitions (line 4).
	sKeyed := rdd.Map(
		rdd.Parallelize(c.ctx, items, c.cfg.C).SetName("S.items").WithBytesPerRecord(int64(8*c.dim+24)),
		func(s sItem) rdd.Pair[int, sItem] { return rdd.KV(s.Cluster, s) },
	).SetName("S.byCluster")

	// Stage 1 (lines 6-12): join testing pairs with their own cluster's
	// negative block, take the local top-k, fold in the positive scan
	// (exhaustive up to groups that provably hold no neighbor), and decide
	// whether cross-cluster search is needed.
	// The join is partitioned per training cluster (b partitions), so a
	// task's working set is one cluster's block: small cluster numbers
	// mean big blocks, which is what overruns executor memory in the
	// paper's Fig. 8(b).
	// The stage-1 output feeds two consumers (the no-cross results and the
	// cross-cluster fanout), so it is persisted — exactly the distributed
	// memory management the paper credits Spark for (§2.2); without it
	// the intra-cluster scans would run twice.
	joined := rdd.Join(sKeyed, c.negBlocks, len(c.centers)).SetName("S⋈T-neg")
	stage1 := rdd.Map(joined, func(row rdd.Pair[int, rdd.Tuple2[sItem, knn.Block]]) stage1Out {
		s := row.Value.A
		// One buffer over the own block and straight on over the
		// positive pairs (lines 9-10): the negatives' k-th distance
		// already bounds the positive scan, and the result is the top k
		// of the union, which is what merging two top-k lists gives.
		top := knn.NewTopK(k, make([]knn.Neighbor, 0, k))
		spent := work{Intra: int32(c.scanBlock(&top, s.Vec, row.Key, row.Value.B))}
		spent.PosScan, spent.PosSkipped = c.scanPositives(&top, s.Vec)
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

	// Stage 2 (lines 12-15): fan surviving queries out to their additional
	// partitions, join with those negative blocks, and merge the per-
	// partition top-k lists back per testing pair.
	base := rdd.Map(stage1, func(o stage1Out) rdd.Pair[int, partial] {
		spent := o.Work
		spent.Additional = int32(len(o.Additional))
		return rdd.KV(o.Item.ID, partial{Neighbors: o.Neighbors, Work: spent})
	}).SetName("S.stage1.neighbors")

	type crossQuery struct {
		ID  int
		Vec []float64
	}
	fanout := rdd.FlatMap(stage1, func(o stage1Out) []rdd.Pair[int, crossQuery] {
		if !o.NeedCross {
			return nil
		}
		out := make([]rdd.Pair[int, crossQuery], 0, len(o.Additional))
		for _, p := range o.Additional {
			out = append(out, rdd.KV(p, crossQuery{ID: o.Item.ID, Vec: o.Item.Vec}))
		}
		return out
	}).SetName("S.crossFanout")

	crossJoined := rdd.Join(fanout, c.negBlocks, len(c.centers)).SetName("Scross⋈T-neg")
	crossResults := rdd.Map(crossJoined, func(row rdd.Pair[int, rdd.Tuple2[crossQuery, knn.Block]]) rdd.Pair[int, partial] {
		q := row.Value.A
		top := knn.NewTopK(k, make([]knn.Neighbor, 0, k))
		cross := c.scanBlock(&top, q.Vec, row.Key, row.Value.B)
		return rdd.KV(q.ID, partial{Neighbors: top.Neighbors(), Work: work{Cross: int32(cross)}})
	}).SetName("S.crossNeighbors")

	// The lists of one testing pair come from different blocks, so they
	// are sorted and share no training index: a linear merge suffices.
	merged := rdd.ReduceByKey(rdd.Union(base, crossResults), func(a, b partial) partial {
		return partial{
			Neighbors: knn.MergeSorted(k, a.Neighbors, b.Neighbors),
			Work:      a.Work.plus(b.Work),
		}
	}, c.cfg.C).SetName("S.finalNeighbors")

	// Line 17: score (Eq. 5) and label (Eq. 6).
	theta := c.cfg.Theta
	scored := rdd.Map(merged, func(kv rdd.Pair[int, partial]) scoredRow {
		p := kv.Value
		score := ScoreNeighbors(p.Neighbors, eps)
		label := -1
		if score >= theta {
			label = 1
		}
		return scoredRow{
			Result: Result{ID: kv.Key, Score: score, Label: label, Neighbors: p.Neighbors},
			Work:   p.Work,
		}
	}).SetName("S.scored")

	rows, err := scored.Collect()
	if err != nil {
		return nil, fmt.Errorf("core: classification: %w", err)
	}
	results := make([]Result, len(rows))
	for i, r := range rows {
		results[i] = r.Result
		r.Work.addTo(stats)
	}
	return results, nil
}

// scanBlock offers a negative block to the query's buffer and returns the
// number of distance computations it took. With Config.LocalIndex the
// block's k-d tree answers the query; otherwise the block is scanned, and a
// scanned block charges its full size. Neighbors keep their global training
// index, so lists from different blocks merge exactly.
func (c *Classifier) scanBlock(top *knn.TopK, q []float64, cluster int, block knn.Block) int64 {
	if c.negTrees != nil && cluster >= 0 && cluster < len(c.negTrees) && c.negTrees[cluster] != nil {
		return c.negTrees[cluster].Search(q, top)
	}
	top.Scan(q, block)
	return int64(block.Len())
}

// scanPositives offers the positive pairs to the query's buffer: first every
// group's centre row, then the groups' other rows, group by group in
// ascending order of a lower bound on the distance from q to any member,
// stopping at the first group whose bound is strictly above the buffer's k-th
// distance — that group and every later one hold no neighbor. It returns the
// distances computed (one per centre plus one per other row of each group
// opened, so never more than there are positives) and the groups left
// unopened. The buffer ends up exactly as after a scan of every positive:
// what is skipped could not have entered.
//
// The bound. For a member p of a group with centre c and radius r, the
// triangle inequality gives d(q,p) >= d(q,c) - d(c,p) >= d(q,c) - r. That
// holds for exact distances; the buffer compares computed ones. Each of the
// three is vecmath.Dist of exactly represented inputs — dim squares summed in
// order, all non-negative, then a square root — so each carries a relative
// error below g = (dim/2+2)·2^-53, and so does r, the largest computed
// d(c,p). Chaining the three errors, a member's computed distance is at least
// dc - r - 2g·(dc+r) for the computed dc = d(q,c). The bound subtracts
// posSlack(dim)·(dc+r) with posSlack = 8g: the spare factor of four pays for
// the few roundings in evaluating the bound itself, each at most
// 2^-53·(dc+r). Squares that underflow break the relative argument, by less
// than sqrt(dim)·2^-537 per distance; posAbsSlack covers that. The allowances
// cost nothing measurable: they only open a group whose bound lies within a
// few ulps of the k-th distance. A bound that is NaN (infinite inputs) fails
// the skip test and its group is scanned.
//
// A group is skipped only when bound > w, strictly, w being the k-th
// distance: then every member's computed distance is strictly above w and
// knn.Less would refuse it whatever its index. A member at exactly w — which
// enters when its index is below the k-th neighbor's — has bound <= w and is
// scanned. Until k neighbors are held w is +Inf and nothing is skipped.
func (c *Classifier) scanPositives(top *knn.TopK, q []float64) (computed, skipped int32) {
	var buf [maxPosGroups]float64
	bounds := buf[:len(c.posGroups)]
	slack := posSlack(c.dim)
	for g, group := range c.posGroups {
		// The same bits Scan would compute for the row.
		dc, r := vecmath.Dist(q, group.Row(0, c.dim)), c.posRadii[g]
		top.Offer(knn.Neighbor{Index: group.IDs[0], Dist: dc, Label: group.Label})
		bounds[g] = dc - r - slack*(dc+r) - posAbsSlack
	}
	computed = int32(len(bounds))
	// Selecting the smallest unopened bound each round costs less than
	// sorting them: a round opens a group, and few queries open more than
	// one or two.
	var opened uint32
	for left := len(bounds); left > 0; left-- {
		best := -1
		for g, b := range bounds {
			if opened&(1<<g) == 0 && (best < 0 || b < bounds[best]) {
				best = g
			}
		}
		if w, _ := top.Worst(); bounds[best] > w {
			return computed, int32(left)
		}
		group := c.posGroups[best]
		top.Scan(q, knn.Block{Vecs: group.Vecs[c.dim:], IDs: group.IDs[1:], Label: group.Label})
		computed += int32(group.Len() - 1)
		opened |= 1 << best
	}
	return computed, 0
}

// posSlack is the relative and posAbsSlack the absolute floating-point
// allowance of the positive-group bound; see scanPositives.
func posSlack(dim int) float64 { return float64(4*dim+16) * 0x1p-53 }

const posAbsSlack = 0x1p-500

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
