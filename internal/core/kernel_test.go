package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adrdedup/internal/cluster"
	"adrdedup/internal/knn"
	"adrdedup/internal/rdd"
	"adrdedup/internal/vecmath"
)

// The kernel Classify ran before the flat blocks and the bounded buffer, kept
// as the differential oracle: one candidate per training pair with its square
// root taken, a heap-based bounded selection per list, and a map to
// de-duplicate the merge.

func refTopKAgainst(q []float64, block []ipair, k int) []knn.Neighbor {
	cands := make([]knn.Neighbor, len(block))
	for j, t := range block {
		cands[j] = knn.Neighbor{Index: t.Idx, Dist: vecmath.Dist(q, t.Vec), Label: t.Label}
	}
	return rdd.BoundedMin(cands, k, knn.Less)
}

func refTopKPositives(q []float64, positives []ipair, k int) []knn.Neighbor {
	if len(positives) == 0 {
		return nil
	}
	cands := make([]knn.Neighbor, len(positives))
	for j, t := range positives {
		cands[j] = knn.Neighbor{Index: t.Idx, Dist: vecmath.Dist(q, t.Vec), Label: +1}
	}
	return rdd.BoundedMin(cands, k, knn.Less)
}

func refMerge(k int, lists ...[]knn.Neighbor) []knn.Neighbor {
	var all []knn.Neighbor
	seen := make(map[int]bool)
	for _, l := range lists {
		for _, n := range l {
			if !seen[n.Index] {
				seen[n.Index] = true
				all = append(all, n)
			}
		}
	}
	return rdd.BoundedMin(all, k, knn.Less)
}

// referenceClassify is Algorithm 2 run sequentially on the driver with the
// reference kernel. It takes the classifier's partition (centers, block
// membership, pruning mask, Algorithm 1) as given and reads every vector
// from the caller's training pairs, not from the classifier's arenas. It
// scans every positive for every testing pair: the classifier's positive
// groups are nothing it knows about.
func referenceClassify(t *testing.T, c *Classifier, train []TrainingPair, test [][]float64) ([]Result, Stats) {
	t.Helper()
	rows, err := c.negBlocks.Collect()
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([][]ipair, len(c.centers))
	for _, kv := range rows {
		for _, id := range kv.Value.IDs {
			blocks[kv.Key] = append(blocks[kv.Key], ipair{Idx: id, Vec: train[id].Vec, Label: train[id].Label})
		}
	}
	var positives []ipair
	for i, p := range train {
		if p.Label > 0 {
			positives = append(positives, ipair{Idx: i, Vec: p.Vec, Label: p.Label})
		}
	}
	keep, err := c.pruneMask(test)
	if err != nil {
		t.Fatal(err)
	}

	k := c.cfg.K
	stats := Stats{TestPairs: len(test)}
	results := make([]Result, len(test))
	for i, v := range test {
		if !keep[i] {
			stats.PrunedPairs++
			results[i] = Result{ID: i, Score: math.Inf(-1), Label: -1, Pruned: true}
			continue
		}
		own, _ := vecmath.ArgMinDist(v, c.centers)
		neighbors := refMerge(k, refTopKAgainst(v, blocks[own], k), refTopKPositives(v, positives, k))
		stats.IntraClusterComparisons += int64(len(blocks[own]))
		stats.PositiveScanComparisons += int64(len(positives))

		needCross := len(neighbors) < k || c.cfg.DisablePositiveShortcut
		for _, n := range neighbors {
			needCross = needCross || n.Label > 0
		}
		if needCross {
			for _, p := range c.selectPartitions(sItem{ID: i, Vec: v, Cluster: own}, neighbors) {
				neighbors = refMerge(k, neighbors, refTopKAgainst(v, blocks[p], k))
				stats.CrossClusterComparisons += int64(len(blocks[p]))
				stats.AdditionalClustersChecked++
			}
		}
		score := ScoreNeighbors(neighbors, c.cfg.Epsilon)
		label := -1
		if score >= c.cfg.Theta {
			label = 1
		}
		results[i] = Result{ID: i, Score: score, Label: label, Neighbors: neighbors}
	}
	return results, stats
}

// sameResults compares classification output bit for bit: a nil and an empty
// neighbor list are the same list, a distance is the same only if its bits are.
func sameResults(a, b []Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d results vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Label != y.Label || x.Pruned != y.Pruned ||
			math.Float64bits(x.Score) != math.Float64bits(y.Score) || len(x.Neighbors) != len(y.Neighbors) {
			return fmt.Errorf("result %d: %+v vs %+v", i, x, y)
		}
		for j := range x.Neighbors {
			n, m := x.Neighbors[j], y.Neighbors[j]
			if n.Index != m.Index || n.Label != m.Label || math.Float64bits(n.Dist) != math.Float64bits(m.Dist) {
				return fmt.Errorf("result %d neighbor %d: %+v vs %+v", i, j, n, m)
			}
		}
	}
	return nil
}

// gridData draws training pairs with coordinates on a grid of step 1/20 —
// not representable in binary, so distances equal on paper differ in their
// last bits and two squares can share a square root — and repeats every
// fourth vector under a new index and possibly the other label, so exact
// ties are settled by index across blocks and across the positive scan.
func gridData(rng *rand.Rand, n, dim int) []TrainingPair {
	out := make([]TrainingPair, n)
	for i := range out {
		label := -1
		if rng.Intn(6) == 0 {
			label = +1
		}
		v := make([]float64, dim)
		if i > 0 && i%4 == 0 {
			copy(v, out[rng.Intn(i)].Vec)
		} else {
			for d := range v {
				v[d] = float64(rng.Intn(21)) / 20
			}
		}
		out[i] = TrainingPair{Vec: v, Label: label}
	}
	out[0].Label, out[n-1].Label = -1, +1
	return out
}

func gridQueries(rng *rand.Rand, n, dim int) [][]float64 {
	qs := make([][]float64, n)
	for i := range qs {
		qs[i] = make([]float64, dim)
		for d := range qs[i] {
			qs[i][d] = float64(rng.Intn(21)) / 20
		}
	}
	return qs
}

func TestClassifyMatchesReferenceKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	type variant struct {
		name string
		edit func(*Config)
	}
	variants := []variant{
		{"default", func(*Config) {}},
		// Far more clusters than distinct vectors: empty and one-point blocks.
		{"random-partition", func(c *Config) { c.RandomPartition = true; c.B = 40 }},
		{"no-partition-pruning", func(c *Config) { c.DisablePartitionPruning = true }},
		{"no-positive-shortcut", func(c *Config) { c.DisablePositiveShortcut = true }},
		{"pruning", func(c *Config) { c.Pruning = &PruningConfig{Clusters: 3, FTheta: 0.2} }},
	}
	var skipped int64
	for _, dim := range []int{1, 7, 16} {
		for _, n := range []int{30, 600} {
			train := gridData(rng, n, dim)
			queries := gridQueries(rng, 60, dim)
			for _, k := range []int{1, 9, 21, n + 5} {
				for _, v := range variants {
					cfg := Config{K: k, B: 6, C: 3, Seed: int64(dim + n + k)}
					v.edit(&cfg)
					clf, err := Train(testCtx(), train, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, gotStats, err := clf.Classify(queries)
					if err != nil {
						t.Fatal(err)
					}
					want, wantStats := referenceClassify(t, clf, train, queries)
					name := fmt.Sprintf("dim=%d n=%d k=%d %s", dim, n, k, v.name)
					if err := sameResults(got, want); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					// The reference scans every positive, so its count is
					// the ceiling of the one counter it cannot repeat.
					if gotStats.PositiveScanComparisons > wantStats.PositiveScanComparisons {
						t.Fatalf("%s: %d positive-scan distances, more than the %d of scanning every positive",
							name, gotStats.PositiveScanComparisons, wantStats.PositiveScanComparisons)
					}
					if v.name == "default" {
						skipped += gotStats.PositiveGroupsSkipped
					}
					gotStats.VirtualTime = 0
					gotStats.PositiveScanComparisons, gotStats.PositiveGroupsSkipped = 0, 0
					wantStats.PositiveScanComparisons = 0
					if gotStats != wantStats {
						t.Fatalf("%s: stats %+v, reference %+v", name, gotStats, wantStats)
					}
				}
			}
		}
	}
	if skipped == 0 {
		t.Error("no positive group was ever skipped on the default configuration")
	}
}

// scanGrouped runs stage 1's two scans for one query outside the engine: the
// negatives as one block, then the classifier's grouped positive scan.
func scanGrouped(t *testing.T, c *Classifier, k int, negs []ipair, q []float64) ([]knn.Neighbor, int, int) {
	t.Helper()
	neg, err := flatBlock(negs, c.dim, -1)
	if err != nil {
		t.Fatal(err)
	}
	top := knn.NewTopK(k, make([]knn.Neighbor, 0, k))
	top.Scan(q, neg)
	computed, skipped := c.scanPositives(&top, q)
	return top.Neighbors(), int(computed), int(skipped)
}

func sameNeighbors(a, b []knn.Neighbor) bool {
	return sameResults([]Result{{Neighbors: a}}, []Result{{Neighbors: b}}) == nil
}

// TestPositiveGroupSkipKeepsBoundaryTies drives the grouped positive scan at
// the cases its skip test could get wrong, each against the scan of every
// positive: a positive at exactly the k-th distance, which must enter when
// its index is the lower one and stay out when it is the higher; groups of
// radius zero; a single group; fewer positives than k; a group whose bound
// rounds above a member's distance; and grid coordinates, where equal
// distances are everywhere.
func TestPositiveGroupSkipKeepsBoundaryTies(t *testing.T) {
	const dim = 2
	at := func(idx, label int, x, y float64) ipair { return ipair{Idx: idx, Vec: []float64{x, y}, Label: label} }
	grouped := func(positives []ipair) *Classifier {
		c := &Classifier{cfg: Config{Seed: 5}.withDefaults(), dim: len(positives[0].Vec)}
		if err := c.groupPositives(positives); err != nil {
			t.Fatal(err)
		}
		if c.Positives() != len(positives) {
			t.Fatalf("%d positives grouped, want %d", c.Positives(), len(positives))
		}
		return c
	}
	q := []float64{0.5, 0.5}
	// Negatives at 0.1, 0.2 and 0.3 from q along x; with k = 3 the third is
	// the k-th neighbor. 0.3 along y is the same distance to the last bit.
	negs := []ipair{at(10, -1, 0.6, 0.5), at(11, -1, 0.7, 0.5), at(12, -1, 0.8, 0.5)}
	var corners []ipair
	for i, xy := range [][2]float64{{0, 0}, {0.05, 0}, {0, 0.05}, {0.05, 0.05}, {1, 1}, {0.95, 1}, {1, 0.95}, {0.95, 0.95}} {
		corners = append(corners, at(20+i, +1, xy[0], xy[1]))
	}

	for _, tc := range []struct {
		name     string
		tieIdx   int
		tieEnter bool
	}{
		{"lower index enters", 3, true},
		{"higher index stays out", 50, false},
	} {
		positives := append([]ipair{at(tc.tieIdx, +1, 0.5, 0.8)}, corners...)
		c := grouped(positives)
		alone := false
		for g, group := range c.posGroups {
			alone = alone || (group.Len() == 1 && group.IDs[0] == tc.tieIdx && c.posRadii[g] == 0)
		}
		if !alone || len(c.posGroups) < 2 {
			t.Fatalf("%s: the tied positive is not a radius-0 group of its own among several: %+v", tc.name, c.posGroups)
		}
		got, computed, skipped := scanGrouped(t, c, 3, negs, q)
		want := refMerge(3, refTopKAgainst(q, negs, 3), refTopKPositives(q, positives, 3))
		if !sameNeighbors(got, want) {
			t.Errorf("%s: neighbors %+v, full scan %+v", tc.name, got, want)
		}
		if entered := got[2].Index == tc.tieIdx; entered != tc.tieEnter || got[2].Dist != want[2].Dist {
			t.Errorf("%s: k-th neighbor %+v", tc.name, got[2])
		}
		if skipped == 0 || computed >= len(positives) {
			t.Errorf("%s: %d distances, %d groups skipped: the far corners were scanned", tc.name, computed, skipped)
		}
	}

	// Every positive on one point: one group of radius zero, ties settled
	// by index alone, on both sides of the k-th negative's index.
	var stacked []ipair
	for _, idx := range []int{2, 5, 40, 41, 60, 61} {
		stacked = append(stacked, at(idx, +1, 0.5, 0.8))
	}
	c := grouped(stacked)
	if len(c.posGroups) != 1 || c.posRadii[0] != 0 {
		t.Fatalf("coincident positives: %d groups, radii %v", len(c.posGroups), c.posRadii)
	}
	for _, k := range []int{1, 3, 5, 9} {
		got, _, _ := scanGrouped(t, c, k, negs, q)
		if want := refMerge(k, refTopKAgainst(q, negs, k), refTopKPositives(q, stacked, k)); !sameNeighbors(got, want) {
			t.Errorf("coincident positives, k=%d: neighbors %+v, full scan %+v", k, got, want)
		}
	}

	// Fewer positives than k, and fewer candidates than k altogether: the
	// buffer never fills, nothing may be skipped, every positive is held.
	few := corners[:4]
	c = grouped(few)
	got, computed, skipped := scanGrouped(t, c, 9, negs[:2], q)
	if want := refMerge(9, refTopKAgainst(q, negs[:2], 9), refTopKPositives(q, few, 9)); !sameNeighbors(got, want) {
		t.Errorf("positives < k: neighbors %+v, full scan %+v", got, want)
	}
	if skipped != 0 || computed != len(few) || len(got) != len(few)+2 {
		t.Errorf("positives < k: %d distances, %d skipped, %d neighbors held", computed, skipped, len(got))
	}

	// A single positive is a single group.
	c = grouped(corners[:1])
	if len(c.posGroups) != 1 {
		t.Fatalf("one positive in %d groups", len(c.posGroups))
	}
	got, _, _ = scanGrouped(t, c, 3, negs[:2], q)
	if want := refMerge(3, refTopKAgainst(q, negs[:2], 3), refTopKPositives(q, corners[:1], 3)); !sameNeighbors(got, want) {
		t.Errorf("one positive: neighbors %+v, full scan %+v", got, want)
	}

	// Rounding: on a line, d(q,c) - r is the distance to the member behind
	// the radius on paper, and a few ulps more in floating point (0.55 -
	// fl(0.55-0.05) > 0.05). Without its allowance the bound would rule out a
	// member tied with the k-th neighbor.
	var line []ipair
	for i, x := range []float64{0.05, 0.55, 0.6, 5, 5.1, 5.2, 9, 9.1} {
		line = append(line, ipair{Idx: i, Vec: []float64{x}, Label: +1})
	}
	c = grouped(line)
	tight := false
	for g, group := range c.posGroups {
		tight = tight || (group.IDs[0] == 1 && group.Len() == 3 && 0.55-c.posRadii[g] > 0.05)
	}
	if !tight {
		t.Fatalf("rounding: no group centred on 0.55 whose plain bound exceeds 0.05: %+v %v", c.posGroups, c.posRadii)
	}
	lineNeg := []ipair{{Idx: 99, Vec: []float64{-0.05}, Label: -1}}
	got, _, skipped = scanGrouped(t, c, 1, lineNeg, []float64{0})
	if want := refMerge(1, refTopKAgainst([]float64{0}, lineNeg, 1), refTopKPositives([]float64{0}, line, 1)); !sameNeighbors(got, want) || got[0].Index != 0 {
		t.Errorf("rounding: neighbors %+v, full scan %+v", got, want)
	}
	if skipped != 2 {
		t.Errorf("rounding: %d groups skipped, want the two far ones", skipped)
	}

	// Grid coordinates in two dimensions: distances tie all the time, at the
	// k-th place too, between positives of different groups and against the
	// negatives.
	rng := rand.New(rand.NewSource(23))
	var skippedTotal int
	for round := 0; round < 20; round++ {
		var gridPos, gridNeg []ipair
		for i, p := range gridData(rng, 150, dim) {
			if p.Label > 0 {
				gridPos = append(gridPos, ipair{Idx: i, Vec: p.Vec, Label: +1})
			} else if len(gridNeg) < 30 {
				gridNeg = append(gridNeg, ipair{Idx: i, Vec: p.Vec, Label: -1})
			}
		}
		c := grouped(gridPos)
		for _, k := range []int{1, 3, 9} {
			for _, q := range gridQueries(rng, 40, dim) {
				got, computed, skipped := scanGrouped(t, c, k, gridNeg, q)
				want := refMerge(k, refTopKAgainst(q, gridNeg, k), refTopKPositives(q, gridPos, k))
				if !sameNeighbors(got, want) {
					t.Fatalf("grid round %d k=%d q=%v: neighbors %+v, full scan %+v", round, k, q, got, want)
				}
				if computed > len(gridPos) {
					t.Fatalf("grid round %d: %d distances for %d positives", round, computed, len(gridPos))
				}
				skippedTotal += skipped
			}
		}
	}
	if skippedTotal == 0 {
		t.Error("grid: no group was ever skipped")
	}
}

// TestClassifyStatsIdenticalUnderFaults pins that Stats, like the results,
// comes from committed task output only: failed, retried and speculative
// attempts, and partitions that went through the spill codec, leave every
// counter where a clean run puts it.
func TestClassifyStatsIdenticalUnderFaults(t *testing.T) {
	const dim = 7
	train := synthData(25, 3000, dim, 1)
	queries, _ := synthQueries(300, dim, 2)
	run := func(cc cluster.Config) ([]Result, Stats, cluster.MetricsSnapshot) {
		cc.Executors, cc.CoresPerExecutor = 4, 2
		cl := cluster.New(cc)
		defer cl.Close()
		clf, err := Train(rdd.NewContext(cl), train, Config{K: 9, B: 64, C: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, stats, err := clf.Classify(queries)
		if err != nil {
			t.Fatal(err)
		}
		stats.VirtualTime = 0
		return res, stats, cl.Metrics().Snapshot()
	}
	want, wantStats, _ := run(cluster.Config{})
	if wantStats.CrossClusterComparisons == 0 || wantStats.AdditionalClustersChecked == 0 {
		t.Fatalf("no cross-cluster work to count: %+v", wantStats)
	}
	if wantStats.PositiveScanComparisons == 0 || wantStats.PositiveGroupsSkipped == 0 {
		t.Fatalf("no positive-scan work or no skipped group to count: %+v", wantStats)
	}
	for _, tc := range []struct {
		name      string
		cc        cluster.Config
		exercised func(cluster.MetricsSnapshot) int64
	}{
		{"task failures",
			cluster.Config{FailureRate: 0.3, MaxTaskRetries: 20, Seed: 84},
			func(m cluster.MetricsSnapshot) int64 { return m.TaskFailures }},
		{"failures and speculation",
			cluster.Config{
				FailureRate: 0.3, MaxTaskRetries: 20, Seed: 85,
				Speculation: true, SpeculationQuantile: 0.5, SpeculationMinRuntimeMS: -1,
				StragglerRate: 0.3, StragglerRealDelayMS: 2,
			},
			func(m cluster.MetricsSnapshot) int64 { return m.SpeculativeTasksLaunched }},
		{"spill",
			cluster.Config{SpillToDisk: true, MemoryPerExecutorBytes: 16 << 10, Seed: 86},
			func(m cluster.MetricsSnapshot) int64 { return m.SpillEvents }},
	} {
		got, gotStats, metrics := run(tc.cc)
		if tc.exercised(metrics) == 0 {
			t.Errorf("%s: the run did not exercise it", tc.name)
		}
		if err := sameResults(got, want); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if gotStats != wantStats {
			t.Errorf("%s: stats %+v, clean run %+v", tc.name, gotStats, wantStats)
		}
	}
}

// BenchmarkClassifyPair times what stage 1 does for one testing pair at the
// batch_detect shape — a 121-pair negative block, 400 positives, 7 dimensions,
// k = 9 — through the kernel with the positives grouped (what Classify runs),
// through the kernel scanning every positive, and through the reference.
func BenchmarkClassifyPair(b *testing.B) {
	const dim, k = 7, 9
	train := synthData(400, 121, dim, 95)
	var negs, poss []ipair
	for i, p := range train {
		ip := ipair{Idx: i, Vec: p.Vec, Label: p.Label}
		if p.Label > 0 {
			poss = append(poss, ip)
		} else {
			negs = append(negs, ip)
		}
	}
	neg, err := flatBlock(negs, dim, -1)
	if err != nil {
		b.Fatal(err)
	}
	pos, err := flatBlock(poss, dim, +1)
	if err != nil {
		b.Fatal(err)
	}
	queries, _ := synthQueries(256, dim, 96)

	b.Run("grouped", func(b *testing.B) {
		c := &Classifier{cfg: Config{Seed: 95}.withDefaults(), dim: dim}
		if err := c.groupPositives(poss); err != nil {
			b.Fatal(err)
		}
		var computed int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			top := knn.NewTopK(k, make([]knn.Neighbor, 0, k))
			top.Scan(q, neg)
			n, _ := c.scanPositives(&top, q)
			computed += int64(n)
			benchSink = top.Neighbors()
		}
		b.ReportMetric(float64(computed)/float64(b.N), "posdist/op")
	})
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			top := knn.NewTopK(k, make([]knn.Neighbor, 0, k))
			top.Scan(q, neg)
			top.Scan(q, pos)
			benchSink = top.Neighbors()
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			benchSink = refMerge(k, refTopKAgainst(q, negs, k), refTopKPositives(q, poss, k))
		}
	})
}

var benchSink []knn.Neighbor
