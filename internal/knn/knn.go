// Package knn provides exact k-nearest-neighbor search over pair distance
// vectors: a driver-side brute-force join (ground truth for tests) and the
// naive block-partitioned parallel kNN join of §4.3.1 — the strategy the
// paper's Fast kNN improves on, kept here as the comparison baseline.
package knn

import (
	"runtime"
	"sync"

	"adrdedup/internal/cluster"
	"adrdedup/internal/rdd"
	"adrdedup/internal/vecmath"
)

// Neighbor is one training point returned by a kNN query.
type Neighbor struct {
	// Index identifies the training point.
	Index int
	// Dist is the Euclidean distance to the query.
	Dist float64
	// Label is the training point's label (+1 / -1).
	Label int
}

// Less orders neighbors by distance, breaking ties by index so results are
// deterministic.
func Less(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Index < b.Index
}

// BruteForce finds the k nearest training points for every query, exactly.
// It parallelizes over queries with plain goroutines (no cluster accounting)
// and is the reference implementation the Fast kNN classifier is tested
// against.
func BruteForce(queries, train [][]float64, labels []int, k int) [][]Neighbor {
	out := make([][]Neighbor, len(queries))
	parallelism := runtime.GOMAXPROCS(0)
	chunk := (len(queries) + parallelism - 1) / parallelism
	if chunk < 1 {
		chunk = 1
	}
	var wg sync.WaitGroup
	for lo := 0; lo < len(queries); lo += chunk {
		hi := lo + chunk
		if hi > len(queries) {
			hi = len(queries)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = Query(queries[i], train, labels, k)
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// Query returns the k nearest training points to q, ascending by distance.
func Query(q []float64, train [][]float64, labels []int, k int) []Neighbor {
	top := NewTopK(k, nil)
	for j, t := range train {
		lbl := 0
		if labels != nil {
			lbl = labels[j]
		}
		top.OfferSq(j, vecmath.SqDist(q, t), lbl)
	}
	return top.Neighbors()
}

// Merge combines neighbor lists into the k nearest overall, deduplicating by
// training index (a neighbor may be found by several partitions, at the same
// distance each time). The lists need not be sorted.
func Merge(k int, lists ...[]Neighbor) []Neighbor {
	top := NewTopK(k, nil)
	for _, l := range lists {
	next:
		for _, n := range l {
			for _, held := range top.Neighbors() {
				if held.Index == n.Index {
					continue next
				}
			}
			top.Offer(n)
		}
	}
	return top.Neighbors()
}

// Item is one vector with identity and label, the element type of the
// parallel join.
type Item struct {
	ID    int
	Vec   []float64
	Label int
}

// NaiveJoin is the block nested-loop parallel kNN join of §4.3.1: S is split
// into c blocks and T into b blocks; every (Si, Tj) block pair is compared
// (a Cartesian stage), then per-query neighbor lists are merged by query ID
// (a reduce stage). It is exact but does quadratic work and shuffles every
// block of T to every block of S — the cost Fast kNN's Voronoi partitioning
// avoids. Returned neighbor lists are keyed by query ID.
func NaiveJoin(ctx *rdd.Context, queries, train []Item, k, sBlocks, tBlocks int) (map[int][]Neighbor, error) {
	sb := blockRDD(ctx, queries, sBlocks, "S")
	tb := blockRDD(ctx, train, tBlocks, "T")

	// Each Cartesian partition holds exactly one (Si, Tj) block pair.
	blockPairs := rdd.Cartesian(sb, tb)
	partial := rdd.MapPartitionsTC(blockPairs, func(tc *cluster.TaskContext, _ int, in []rdd.Tuple2[[]Item, []Item]) ([]rdd.Pair[int, []Neighbor], error) {
		var out []rdd.Pair[int, []Neighbor]
		for _, p := range in {
			for _, q := range p.A {
				top := NewTopK(k, nil)
				for _, t := range p.B {
					top.OfferSq(t.ID, vecmath.SqDist(q.Vec, t.Vec), t.Label)
				}
				out = append(out, rdd.KV(q.ID, top.Neighbors()))
			}
			tc.AddDistances(int64(len(p.A)) * int64(len(p.B)))
		}
		return out, nil
	}).SetName("knn.partial")

	merged := rdd.ReduceByKey(partial, func(a, b []Neighbor) []Neighbor {
		return Merge(k, a, b)
	}, sBlocks)
	rows, err := merged.Collect()
	if err != nil {
		return nil, err
	}
	ctx.Cluster().Metrics().Comparisons.Add(int64(len(queries)) * int64(len(train)))
	out := make(map[int][]Neighbor, len(rows))
	for _, kv := range rows {
		out[kv.Key] = kv.Value
	}
	return out, nil
}

// blockRDD turns items into an RDD whose elements are whole blocks, one per
// partition, so Cartesian pairs blocks rather than individual vectors.
func blockRDD(ctx *rdd.Context, items []Item, blocks int, name string) *rdd.RDD[[]Item] {
	if blocks < 1 {
		blocks = 1
	}
	if blocks > len(items) && len(items) > 0 {
		blocks = len(items)
	}
	chunks := make([][]Item, 0, blocks)
	n := len(items)
	for b := 0; b < blocks; b++ {
		lo := b * n / blocks
		hi := (b + 1) * n / blocks
		chunks = append(chunks, items[lo:hi])
	}
	return rdd.Parallelize(ctx, chunks, blocks).SetName(name + ".blocks")
}
