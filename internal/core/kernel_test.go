package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"adrdedup/internal/adrgen"
	"adrdedup/internal/candgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/intern"
	"adrdedup/internal/knn"
	"adrdedup/internal/pairdist"
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

// groupPairs is a grouped block's members back in training order, the
// vectors aliasing the arenas.
func groupPairs(g knn.Groups, dim int) []ipair {
	out := make([]ipair, 0, g.Len())
	for _, b := range g.Blocks {
		for i, id := range b.IDs {
			out = append(out, ipair{Idx: id, Vec: b.Row(i, dim), Label: b.Label})
		}
	}
	slices.SortFunc(out, func(a, b ipair) int { return cmp.Compare(a.Idx, b.Idx) })
	return out
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
// membership, pruning clusters, Algorithm 1) as given and reads every vector
// from the caller's training pairs, not from the classifier's arenas. It
// scans every negative of every block it visits and every positive for every
// testing pair: the classifier's groups are nothing it knows about.
func referenceClassify(t *testing.T, c *Classifier, train []TrainingPair, test [][]float64) ([]Result, Stats) {
	t.Helper()
	rows, err := c.negBlocks.Collect()
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([][]ipair, len(c.centers))
	for _, kv := range rows {
		for _, g := range kv.Value.Blocks {
			for _, id := range g.IDs {
				blocks[kv.Key] = append(blocks[kv.Key], ipair{Idx: id, Vec: train[id].Vec, Label: train[id].Label})
			}
		}
	}
	var positives []ipair
	for i, p := range train {
		if p.Label > 0 {
			positives = append(positives, ipair{Idx: i, Vec: p.Vec, Label: p.Label})
		}
	}
	// §4.3.4: a pair survives when it lies within f(θ) of some positive
	// cluster's radius; with pruning off every pair survives.
	kept := func(v []float64) bool {
		if c.cfg.Pruning == nil || len(c.pruneCenters) == 0 {
			return true
		}
		slack := c.cfg.Pruning.FTheta * math.Sqrt(float64(c.dim))
		for ci, cp := range c.pruneCenters {
			if vecmath.Dist(v, cp) <= c.pruneRadii[ci]+slack {
				return true
			}
		}
		return false
	}

	k := c.cfg.K
	stats := Stats{TestPairs: len(test)}
	results := make([]Result, len(test))
	for i, v := range test {
		if !kept(v) {
			stats.PrunedPairs++
			results[i] = Result{ID: i, Score: math.Inf(-1), Label: -1, Pruned: true}
			continue
		}
		own, _ := vecmath.ArgMinDist(v, c.centers)
		neighbors := refMerge(k, refTopKAgainst(v, blocks[own], k), refTopKAgainst(v, positives, k))
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
		score := ScoreNeighbors(neighbors, DefaultEpsilon)
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
	var saved, skipped int64
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
					// The reference scans every row of every block it
					// visits, so its counts are the ceiling of the three
					// the grouped search lowers.
					if gotStats.IntraClusterComparisons > wantStats.IntraClusterComparisons ||
						gotStats.CrossClusterComparisons > wantStats.CrossClusterComparisons ||
						gotStats.PositiveScanComparisons > wantStats.PositiveScanComparisons {
						t.Fatalf("%s: stats %+v compute more distances than the reference's %+v", name, gotStats, wantStats)
					}
					if v.name == "default" {
						// Only a skipped group saves a negative distance.
						saved += wantStats.IntraClusterComparisons + wantStats.CrossClusterComparisons -
							gotStats.IntraClusterComparisons - gotStats.CrossClusterComparisons
						skipped += gotStats.PositiveGroupsSkipped
					}
					gotStats.VirtualTime = 0
					gotStats.IntraClusterComparisons, wantStats.IntraClusterComparisons = 0, 0
					gotStats.CrossClusterComparisons, wantStats.CrossClusterComparisons = 0, 0
					gotStats.PositiveScanComparisons, wantStats.PositiveScanComparisons = 0, 0
					gotStats.PositiveGroupsSkipped = 0
					if gotStats != wantStats {
						t.Fatalf("%s: stats %+v, reference %+v", name, gotStats, wantStats)
					}
				}
			}
		}
	}
	if saved == 0 {
		t.Error("no negative group was ever skipped on the default configuration")
	}
	if skipped == 0 {
		t.Error("no positive group was ever skipped on the default configuration")
	}
}

func sameNeighbors(a, b []knn.Neighbor) bool {
	return sameResults([]Result{{Neighbors: a}}, []Result{{Neighbors: b}}) == nil
}

func relabel(members []ipair, label int) []ipair {
	out := make([]ipair, len(members))
	for i, m := range members {
		m.Label = label
		out[i] = m
	}
	return out
}

// stageShape is one place Algorithm 2 searches a grouped block, run for one
// query outside the engine: the block under test holds label, the other
// block the other label, and search returns the final neighbors with the
// distances computed and groups skipped in the block under test.
type stageShape struct {
	name   string
	label  int
	search func(block, other knn.Groups, k int, q []float64) ([]knn.Neighbor, int, int)
}

var stageShapes = []stageShape{
	// Stage 1 searches the own negative block, then the positives into the
	// same buffer.
	{"stage 1, positives", +1, func(block, other knn.Groups, k int, q []float64) ([]knn.Neighbor, int, int) {
		top := knn.NewTopK(k, make([]knn.Neighbor, 0, k))
		other.Search(&top, q)
		computed, skipped := block.Search(&top, q)
		return top.Neighbors(), int(computed), int(skipped)
	}},
	{"stage 1, negatives", -1, func(block, other knn.Groups, k int, q []float64) ([]knn.Neighbor, int, int) {
		top := knn.NewTopK(k, make([]knn.Neighbor, 0, k))
		computed, skipped := block.Search(&top, q)
		other.Search(&top, q)
		return top.Neighbors(), int(computed), int(skipped)
	}},
	// The cross stage searches another negative block into a buffer of its
	// own and merges that list with the stage-1 one.
	{"cross stage, negatives", -1, func(block, other knn.Groups, k int, q []float64) ([]knn.Neighbor, int, int) {
		own := knn.NewTopK(k, make([]knn.Neighbor, 0, k))
		other.Search(&own, q)
		top := knn.NewTopK(k, make([]knn.Neighbor, 0, k))
		computed, skipped := block.Search(&top, q)
		return knn.MergeSorted(k, own.Neighbors(), top.Neighbors()), int(computed), int(skipped)
	}},
}

// TestGroupSkipKeepsBoundaryTies drives the grouped search at the cases its
// skip test could get wrong, in each place Algorithm 2 runs it — the
// positives in stage 1, the own negative block in stage 1, another negative
// block in the cross stage — each against the scan of every row: a member at
// exactly the k-th distance, which must enter when its index is the lower one
// and stay out when it is the higher; groups of radius zero; a single group;
// fewer members than k; a group whose bound rounds above a member's distance;
// and grid coordinates, where equal distances are everywhere.
func TestGroupSkipKeepsBoundaryTies(t *testing.T) {
	const dim = 2
	at := func(idx, label int, x, y float64) ipair { return ipair{Idx: idx, Vec: []float64{x, y}, Label: label} }
	grouped := func(members []ipair, label int) knn.Groups {
		c := &Classifier{cfg: Config{Seed: 5}.withDefaults(), dim: len(members[0].Vec)}
		g, err := c.group(relabel(members, label), label)
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() != len(members) {
			t.Fatalf("%d members grouped, want %d", g.Len(), len(members))
		}
		return g
	}
	// search runs one case in one place and checks it against the scan of
	// both blocks.
	search := func(sh stageShape, name string, k int, members, others []ipair, q []float64) ([]knn.Neighbor, int, int) {
		got, computed, skipped := sh.search(grouped(members, sh.label), grouped(others, -sh.label), k, q)
		want := refMerge(k, refTopKAgainst(q, relabel(others, -sh.label), k), refTopKAgainst(q, relabel(members, sh.label), k))
		if !sameNeighbors(got, want) {
			t.Errorf("%s, %s, k=%d: neighbors %+v, full scan %+v", sh.name, name, k, got, want)
		}
		return got, computed, skipped
	}
	q := []float64{0.5, 0.5}
	// The other block at 0.1, 0.2 and 0.3 from q along x; with k = 3 the
	// third is the k-th neighbor. 0.3 along y is the same distance to the
	// last bit.
	others := []ipair{at(10, -1, 0.6, 0.5), at(11, -1, 0.7, 0.5), at(12, -1, 0.8, 0.5)}
	var corners []ipair
	for i, xy := range [][2]float64{{0, 0}, {0.05, 0}, {0, 0.05}, {0.05, 0.05}, {1, 1}, {0.95, 1}, {1, 0.95}, {0.95, 0.95}} {
		corners = append(corners, at(20+i, +1, xy[0], xy[1]))
	}
	var stacked []ipair
	for _, idx := range []int{2, 5, 40, 41, 60, 61} {
		stacked = append(stacked, at(idx, +1, 0.5, 0.8))
	}
	// On a line, d(q,c) - r is the distance to the member behind the radius
	// on paper, and a few ulps more in floating point (0.55 - fl(0.55-0.05) >
	// 0.05). Without its allowance the bound would rule out a member tied
	// with the k-th neighbor.
	var line []ipair
	for i, x := range []float64{0.05, 0.55, 0.6, 5, 5.1, 5.2, 9, 9.1} {
		line = append(line, ipair{Idx: i, Vec: []float64{x}, Label: +1})
	}
	lineOther := []ipair{{Idx: 99, Vec: []float64{-0.05}, Label: -1}}

	for _, sh := range stageShapes {
		for _, tc := range []struct {
			name     string
			tieIdx   int
			tieEnter bool
		}{
			{"lower index enters", 3, true},
			{"higher index stays out", 50, false},
		} {
			members := append([]ipair{at(tc.tieIdx, +1, 0.5, 0.8)}, corners...)
			g := grouped(members, sh.label)
			alone := false
			for i, b := range g.Blocks {
				alone = alone || (b.Len() == 1 && b.IDs[0] == tc.tieIdx && g.Radii[i] == 0)
			}
			if !alone || len(g.Blocks) < 2 {
				t.Fatalf("%s: the tied member is not a radius-0 group of its own among several: %+v", tc.name, g)
			}
			got, computed, skipped := search(sh, tc.name, 3, members, others, q)
			if entered := got[2].Index == tc.tieIdx; entered != tc.tieEnter {
				t.Errorf("%s, %s: k-th neighbor %+v", sh.name, tc.name, got[2])
			}
			// Only a buffer already holding the other block's k-th
			// distance can rule the far corners out.
			if sh.name == "stage 1, positives" && (skipped == 0 || computed >= len(members)) {
				t.Errorf("%s, %s: %d distances, %d groups skipped: the far corners were scanned", sh.name, tc.name, computed, skipped)
			}
		}

		// Every member on one point: one group of radius zero, ties settled
		// by index alone, on both sides of the k-th neighbor's index.
		if g := grouped(stacked, sh.label); len(g.Blocks) != 1 || g.Radii[0] != 0 {
			t.Fatalf("coincident members: %d groups, radii %v", len(g.Blocks), g.Radii)
		}
		for _, k := range []int{1, 3, 5, 9} {
			search(sh, "coincident members", k, stacked, others, q)
		}

		// Fewer members than k, and fewer candidates than k altogether: the
		// buffer never fills, nothing may be skipped, every member is held.
		few := corners[:4]
		got, computed, skipped := search(sh, "members < k", 9, few, others[:2], q)
		if skipped != 0 || computed != len(few) || len(got) != len(few)+2 {
			t.Errorf("%s, members < k: %d distances, %d skipped, %d neighbors held", sh.name, computed, skipped, len(got))
		}

		// A single member is a single group.
		if g := grouped(corners[:1], sh.label); len(g.Blocks) != 1 {
			t.Fatalf("one member in %d groups", len(g.Blocks))
		}
		search(sh, "one member", 3, corners[:1], others[:2], q)

		g := grouped(line, sh.label)
		tight := false
		for i, b := range g.Blocks {
			tight = tight || (b.IDs[0] == 1 && b.Len() == 3 && 0.55-g.Radii[i] > 0.05)
		}
		if !tight {
			t.Fatalf("rounding: no group centred on 0.55 whose plain bound exceeds 0.05: %+v", g)
		}
		got, _, skipped = search(sh, "rounding", 1, line, lineOther, []float64{0})
		if got[0].Index != 0 || skipped != 2 {
			t.Errorf("%s, rounding: neighbors %+v, %d groups skipped, want index 0 and the two far groups", sh.name, got, skipped)
		}

		// Grid coordinates in two dimensions: distances tie all the time, at
		// the k-th place too, between members of different groups and
		// against the other block.
		rng := rand.New(rand.NewSource(23))
		var skippedTotal int
		for round := 0; round < 20; round++ {
			var members, other []ipair
			for i, p := range gridData(rng, 150, dim) {
				if p.Label > 0 {
					members = append(members, ipair{Idx: i, Vec: p.Vec, Label: +1})
				} else if len(other) < 30 {
					other = append(other, ipair{Idx: i, Vec: p.Vec, Label: -1})
				}
			}
			block, otherBlock := grouped(members, sh.label), grouped(other, -sh.label)
			members, other = relabel(members, sh.label), relabel(other, -sh.label)
			for _, k := range []int{1, 3, 9} {
				for _, q := range gridQueries(rng, 40, dim) {
					got, computed, skipped := sh.search(block, otherBlock, k, q)
					if want := refMerge(k, refTopKAgainst(q, other, k), refTopKAgainst(q, members, k)); !sameNeighbors(got, want) {
						t.Fatalf("%s, grid round %d k=%d q=%v: neighbors %+v, full scan %+v", sh.name, round, k, q, got, want)
					}
					if computed > len(members) {
						t.Fatalf("%s, grid round %d: %d distances for %d members", sh.name, round, computed, len(members))
					}
					skippedTotal += skipped
				}
			}
		}
		if skippedTotal == 0 {
			t.Errorf("%s, grid: no group was ever skipped", sh.name)
		}
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

// TestNoCrossPairsSkipMerge pins what Classify shuffles. Only the testing
// pairs that cross reach the merge: a pair whose stage-1 top-k is final is
// scored from the cached stage-1 rows, so the records shuffled into
// S.finalNeighbors are the crossing pairs' stage-1 lists plus one list per
// block they fanned out to. With two clusters a crossing pair fans out to
// exactly the other one, so no two of its lists meet in one map-side combine
// and the count is exact. And no training record is shuffled: Train
// hash-partitions the b negative blocks once, into the partitions both joins
// use, and the joins read them from the cache.
func TestNoCrossPairsSkipMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := gridData(rng, 1000, 2)
	queries := gridQueries(rng, 300, 2)
	ctx := testCtx()
	clf, err := Train(ctx, train, Config{K: 9, B: 2, C: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := int64(len(clf.Centers()))
	if got := ctx.Cluster().Metrics().ShuffleRecordsWritten.Load(); got != b {
		t.Fatalf("Train shuffled %d records, want the %d negative blocks once", got, b)
	}
	stages := len(ctx.Cluster().StageHistory())
	before := ctx.Cluster().Metrics().ShuffleRecordsWritten.Load()
	got, stats, err := clf.Classify(queries)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := ctx.Cluster().Metrics().ShuffleRecordsWritten.Load() - before
	for _, s := range ctx.Cluster().StageHistory()[stages:] {
		if strings.HasPrefix(s.Name, "T-neg.blocks") {
			t.Errorf("Classify ran stage %q over the training blocks", s.Name)
		}
	}
	want, _ := referenceClassify(t, clf, train, queries)
	if err := sameResults(got, want); err != nil {
		t.Fatal(err)
	}

	// The two joins shuffle the testing pairs and the fanout and no
	// training record; the merge takes the rest.
	fanout := stats.AdditionalClustersChecked
	merged := shuffled - int64(len(queries)) - fanout
	crossing := fanout
	if crossing == 0 || crossing >= int64(len(queries)) {
		t.Fatalf("%d of %d testing pairs cross; the data does not tell the merges apart", crossing, len(queries))
	}
	if merged != crossing+fanout {
		t.Errorf("%d records shuffled into the merge, want %d crossing pairs + %d fanout", merged, crossing, fanout)
	}
}

// TestOneVectorClassifyLaunchesFewTasks: a single testing pair that does not
// cross touches one Voronoi cell, so Classify launches a task only for the
// partitions that can hold it — fewer than the b cells one join alone spans —
// and its results equal the reference kernel's. It runs four stages, the
// map sides of the three shuffles and the result stage: the testing pairs
// keyed by their cell (the cell assignment runs in these map tasks), the
// cross fanout, which runs the stage-1 join, the merge's inputs, and the
// collect. Pruning adds its own stage.
func TestOneVectorClassifyLaunchesFewTasks(t *testing.T) {
	train := synthData(60, 2400, 7, 5)
	query := [][]float64{{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}}
	for _, tc := range []struct {
		name    string
		pruning *PruningConfig
		stages  int64
	}{
		{"no-pruning", nil, 4},
		// f(θ) = 1 keeps every vector of the unit cube.
		{"pruning-keeps", &PruningConfig{Clusters: 3, FTheta: 1}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := testCtx()
			clf, err := Train(ctx, train, Config{B: 32, C: 8, Seed: 5, Pruning: tc.pruning})
			if err != nil {
				t.Fatal(err)
			}
			b := len(clf.Centers())
			m := ctx.Cluster().Metrics()
			tasks, stages := m.TasksLaunched.Load(), m.StagesRun.Load()
			got, stats, err := clf.Classify(query)
			if err != nil {
				t.Fatal(err)
			}
			tasks, stages = m.TasksLaunched.Load()-tasks, m.StagesRun.Load()-stages
			if stats.AdditionalClustersChecked != 0 || stats.PrunedPairs != 0 {
				t.Fatalf("the query searched %d more cells and %d pairs were pruned; want a kept pair that does not cross",
					stats.AdditionalClustersChecked, stats.PrunedPairs)
			}
			if tasks >= int64(b) {
				t.Errorf("one-vector Classify launched %d tasks, want fewer than the %d cells", tasks, b)
			}
			if stages != tc.stages {
				t.Errorf("one-vector Classify ran %d stages, want %d", stages, tc.stages)
			}
			want, _ := referenceClassify(t, clf, train, query)
			if err := sameResults(got, want); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// batchDetectCells builds what one batch_detect Detect classifies: a
// classifier trained the way the bootstrap trains it (1,200 pairs sampled from
// a 10k-report seed corpus with 400 duplicates, half of the negatives
// confusable), and the θ = 0.5 candidate pairs of 250 arriving reports as
// testing pairs, each routed to its Voronoi cell. It returns the classifier
// with the cells in descending order of the testing pairs they receive.
func batchDetectCells(b *testing.B) (*Classifier, []cellQueries) {
	const seeded, arriving = 10000, 250
	corpus := adrgen.Generate(adrgen.Config{NumReports: seeded, DuplicatePairs: seeded / 25, Seed: 1})
	batch := adrgen.Generate(adrgen.Config{NumReports: arriving, DuplicatePairs: arriving / 100, Seed: 2, CampaignFraction: -1}).Reports
	ctx := testCtx()
	feats, err := pairdist.ExtractAllWith(ctx, intern.New(), append(corpus.Reports, batch...), 4)
	if err != nil {
		b.Fatal(err)
	}
	vectors := func(ids []pairdist.IDPair) []pairdist.PairRecord {
		recs, err := pairdist.ComputeVectors(ctx, feats, ids, 8)
		if err != nil {
			b.Fatal(err)
		}
		return recs
	}
	labelled, err := corpus.SamplePairs(adrgen.PairSampleOptions{Total: 1200, HardFraction: 0.5, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]pairdist.IDPair, len(labelled))
	for i, p := range labelled {
		ids[i] = pairdist.IDPair{A: p.A, B: p.B, Label: p.Label}
	}
	var train []TrainingPair
	for _, r := range vectors(ids) {
		train = append(train, TrainingPair{Vec: r.Vec, Label: r.Label})
	}
	clf, err := Train(ctx, train, Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}

	sigs, err := candgen.Signatures(feats)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := candgen.NewIndex(0.5)
	if err != nil {
		b.Fatal(err)
	}
	ix.Append(sigs[:seeded])
	ix.Append(sigs[seeded:])
	candidates, _, err := ix.Probe(ctx, seeded, 8)
	if err != nil {
		b.Fatal(err)
	}
	rows, err := clf.negBlocks.Collect()
	if err != nil {
		b.Fatal(err)
	}
	cells := make([]cellQueries, len(clf.centers))
	for _, kv := range rows {
		cells[kv.Key].block = kv.Value
	}
	for _, r := range vectors(candidates) {
		cl, _ := vecmath.ArgMinDist(r.Vec, clf.centers)
		cells[cl].queries = append(cells[cl].queries, r.Vec)
	}
	slices.SortStableFunc(cells, func(x, y cellQueries) int { return cmp.Compare(len(y.queries), len(x.queries)) })
	return clf, cells
}

// cellQueries is one Voronoi cell's negative block and the testing pairs the
// stage-1 join routes to it.
type cellQueries struct {
	block   knn.Groups
	queries [][]float64
}

// BenchmarkClassifyPair times what stage 1 does for one testing pair at
// Detect's shape — 7 dimensions, k = 9, the batch_detect bootstrap's 400
// positives and the own-cell negative blocks of its two hottest cells, which
// receive four in five testing pairs, each with the testing pairs routed to
// it — with the negative block grouped (what Classify runs), scanned flat,
// and through the reference.
func BenchmarkClassifyPair(b *testing.B) {
	clf, cells := batchDetectCells(b)
	k, dim := clf.cfg.K, clf.dim
	poss := groupPairs(clf.positives, dim)
	for _, cell := range cells[:2] {
		negs := groupPairs(cell.block, dim)
		flat, err := flatBlock(negs, dim, -1)
		if err != nil {
			b.Fatal(err)
		}
		queries := cell.queries
		b.Run(fmt.Sprintf("neg=%d/grouped", len(negs)), func(b *testing.B) {
			var negDist, posDist int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				top := knn.NewTopK(k, make([]knn.Neighbor, 0, k))
				nd, _ := cell.block.Search(&top, q)
				pd, _ := clf.positives.Search(&top, q)
				negDist, posDist = negDist+int64(nd), posDist+int64(pd)
				benchSink = top.Neighbors()
			}
			b.ReportMetric(float64(negDist)/float64(b.N), "negdist/op")
			b.ReportMetric(float64(posDist)/float64(b.N), "posdist/op")
		})
		b.Run(fmt.Sprintf("neg=%d/flat", len(negs)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				top := knn.NewTopK(k, make([]knn.Neighbor, 0, k))
				top.Scan(q, flat)
				clf.positives.Search(&top, q)
				benchSink = top.Neighbors()
			}
		})
		b.Run(fmt.Sprintf("neg=%d/reference", len(negs)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				benchSink = refMerge(k, refTopKAgainst(q, negs, k), refTopKAgainst(q, poss, k))
			}
		})
	}
}

var benchSink []knn.Neighbor
