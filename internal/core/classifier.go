package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"adrdedup/internal/kmeans"
	"adrdedup/internal/knn"
	"adrdedup/internal/rdd"
	"adrdedup/internal/vecmath"
)

// Classifier is a trained Fast kNN duplicate classifier. Train builds it;
// Classify labels batches of testing pairs. A Classifier is bound to the
// rdd.Context it was trained on.
type Classifier struct {
	ctx *rdd.Context
	cfg Config

	dim     int
	centers [][]float64

	// negBlocks holds the negative training pairs of each Voronoi cell,
	// keyed by cluster ID, one flat block per element — cached on the
	// cluster so repeated Classify calls reuse it (Spark persistence).
	negBlocks *rdd.RDD[rdd.Pair[int, knn.Block]]
	negSizes  []int
	totalNeg  int

	// posGroups is the full positive set, broadcast to tasks (observation
	// 1: it is small), k-means-grouped so that stage 1 can rule out a whole
	// group without scanning it (scanPositives). Row 0 of a group is its
	// centre — the member nearest the k-means centroid — and posRadii the
	// distance from that row to the group's farthest member. numPos is the
	// total over the groups.
	posGroups []knn.Block
	posRadii  []float64
	numPos    int

	// negTrees holds an optional k-d tree per negative block
	// (Config.LocalIndex), aligned with cluster IDs.
	negTrees []*knn.KDTree

	// pruneCenters/pruneRadii implement §4.3.4 when cfg.Pruning is set.
	pruneCenters [][]float64
	pruneRadii   []float64
}

// Train partitions the labelled pairs and prepares the cluster-resident
// training structures. It implements lines 1-4 of Algorithm 2 plus the
// §4.3.4 pruning preparation.
func Train(ctx *rdd.Context, pairs []TrainingPair, cfg Config) (*Classifier, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		return nil, errors.New("core: no training pairs")
	}
	dim := len(pairs[0].Vec)
	vecs := make([][]float64, len(pairs))
	for i, p := range pairs {
		if len(p.Vec) != dim {
			return nil, fmt.Errorf("core: training pair %d has dim %d, want %d", i, len(p.Vec), dim)
		}
		if p.Label != 1 && p.Label != -1 {
			return nil, fmt.Errorf("core: training pair %d has label %d, want +1 or -1", i, p.Label)
		}
		vecs[i] = p.Vec
	}

	c := &Classifier{ctx: ctx, cfg: cfg, dim: dim}

	// Line 1: partition T into b clusters.
	var assign []int
	if cfg.RandomPartition {
		rng := rand.New(rand.NewSource(cfg.Seed))
		assign = make([]int, len(pairs))
		centers := make([][]float64, cfg.B)
		counts := make([]int, cfg.B)
		for i := range centers {
			centers[i] = make([]float64, dim)
		}
		for i := range pairs {
			a := rng.Intn(cfg.B)
			assign[i] = a
			counts[a]++
			vecmath.Add(centers[a], pairs[i].Vec)
		}
		for i := range centers {
			if counts[i] > 0 {
				vecmath.Scale(centers[i], 1/float64(counts[i]))
			}
		}
		c.centers = centers
	} else {
		res, err := kmeans.Run(vecs, cfg.B, kmeans.Options{
			MaxIter: cfg.KMeansMaxIter, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("core: partitioning training pairs: %w", err)
		}
		c.centers = res.Centers
		assign = res.Assign
	}

	// Split by label; group negatives per cluster. Every pair keeps its
	// global training index so neighbor lists merge exactly.
	negByCluster := make([][]ipair, len(c.centers))
	var positives []ipair
	for i, p := range pairs {
		ip := ipair{Idx: i, Vec: p.Vec, Label: p.Label}
		if p.Label > 0 {
			positives = append(positives, ip)
			continue
		}
		negByCluster[assign[i]] = append(negByCluster[assign[i]], ip)
	}
	if err := c.install(negByCluster, positives, "T-neg.blocks"); err != nil {
		return nil, err
	}

	// §4.3.4 preparation: cluster the positives, record radii.
	if cfg.Pruning != nil && len(positives) > 0 {
		posVecs := make([][]float64, len(positives))
		for i, p := range positives {
			posVecs[i] = p.Vec
		}
		res, err := kmeans.Run(posVecs, cfg.Pruning.Clusters, kmeans.Options{
			MaxIter: cfg.KMeansMaxIter, Seed: cfg.Seed + 1,
		})
		if err != nil {
			return nil, fmt.Errorf("core: clustering positives for pruning: %w", err)
		}
		c.pruneCenters = res.Centers
		c.pruneRadii = kmeans.Radii(posVecs, res)
	}
	return c, nil
}

// install puts the training pairs, grouped into one negative block per
// cluster plus the positive set, into the layout Classify scans — the one
// constructor behind Train and Load. It caches the negative blocks on the
// cluster, groups the positives, broadcasts centers and positives, and builds
// the local indexes.
func (c *Classifier) install(negByCluster [][]ipair, positives []ipair, name string) error {
	if err := c.groupPositives(positives); err != nil {
		return err
	}
	b := len(negByCluster)
	c.negSizes = make([]int, b)
	blocks := make([]rdd.Pair[int, knn.Block], b)
	for cl, members := range negByCluster {
		block, err := flatBlock(members, c.dim, -1)
		if err != nil {
			return err
		}
		c.negSizes[cl] = block.Len()
		c.totalNeg += block.Len()
		blocks[cl] = rdd.KV(cl, block)
	}
	avg := int64(1)
	if b > 0 {
		avg = int64(c.totalNeg/b+1) * int64(8*c.dim+16)
	}
	c.negBlocks = rdd.Parallelize(c.ctx, blocks, b).
		SetName(name).
		WithBytesPerRecord(avg).
		Cache()

	// Broadcast the centers and positives to the executors.
	c.ctx.Cluster().Broadcast(int64(len(c.centers)) * int64(8*c.dim))
	c.ctx.Cluster().Broadcast(int64(c.numPos) * int64(8*c.dim+8))

	if c.cfg.LocalIndex {
		c.buildLocalIndexes(blocks)
	}
	return nil
}

// maxPosGroups caps the positive group count, so that a testing pair's group
// bounds fit a fixed-size array on its task's stack.
const maxPosGroups = 32

// posGroupCount is the number of groups n positives are split into: about
// sqrt(n), which minimises centres plus rows for a query that has to open
// one group, up to maxPosGroups.
func posGroupCount(n int) int {
	return min(int(math.Ceil(math.Sqrt(float64(n)))), maxPosGroups)
}

// groupPositives k-means-groups the positives into flat blocks. The grouping
// is a function of the positives in the order given, cfg.Seed and
// cfg.KMeansMaxIter; Train passes them in training order and Save stores
// them in that order, so a loaded model groups exactly as the trained one.
//
// A group's centre is a member, not the centroid: its distance to a query is
// then a distance the scan needs anyway, so grouping never computes more
// distances per testing pair than there are positives.
func (c *Classifier) groupPositives(positives []ipair) error {
	c.numPos = len(positives)
	if len(positives) == 0 {
		return nil
	}
	vecs := make([][]float64, len(positives))
	for i, p := range positives {
		vecs[i] = p.Vec
	}
	res, err := kmeans.Run(vecs, posGroupCount(len(positives)), kmeans.Options{
		MaxIter: c.cfg.KMeansMaxIter, Seed: c.cfg.Seed + 2,
	})
	if err != nil {
		return fmt.Errorf("core: grouping positives: %w", err)
	}
	members := make([][]ipair, len(res.Centers))
	for i, p := range positives {
		members[res.Assign[i]] = append(members[res.Assign[i]], p)
	}
	for g, m := range members {
		if len(m) == 0 {
			continue
		}
		nearest, nearestSq := 0, math.Inf(1)
		for i, p := range m {
			if sq := vecmath.SqDist(p.Vec, res.Centers[g]); sq < nearestSq {
				nearest, nearestSq = i, sq
			}
		}
		m[0], m[nearest] = m[nearest], m[0]
		block, err := flatBlock(m, c.dim, +1)
		if err != nil {
			return err
		}
		var radius float64
		for i := 1; i < block.Len(); i++ {
			radius = max(radius, vecmath.Dist(block.Row(0, c.dim), block.Row(i, c.dim)))
		}
		c.posGroups = append(c.posGroups, block)
		c.posRadii = append(c.posRadii, radius)
	}
	return nil
}

// flatBlock copies the members' vectors row-major into one arena — one
// allocation per block and contiguous memory for the distance scans. The
// label is stored once: a block holds one class.
func flatBlock(members []ipair, dim, label int) (knn.Block, error) {
	b := knn.Block{
		Vecs:  make([]float64, 0, dim*len(members)),
		IDs:   make([]int, len(members)),
		Label: label,
	}
	for i, m := range members {
		if len(m.Vec) != dim {
			return knn.Block{}, fmt.Errorf("core: training pair %d has dim %d, want %d", m.Idx, len(m.Vec), dim)
		}
		if m.Label != label {
			return knn.Block{}, fmt.Errorf("core: training pair %d has label %d in a block of label %d", m.Idx, m.Label, label)
		}
		b.IDs[i] = m.Idx
		b.Vecs = append(b.Vecs, m.Vec...)
	}
	return b, nil
}

// buildLocalIndexes constructs one k-d tree per negative block. Trees are
// block-local (like Zhang et al.'s per-block R-trees) so partition pruning
// and the index compose.
func (c *Classifier) buildLocalIndexes(blocks []rdd.Pair[int, knn.Block]) {
	c.negTrees = make([]*knn.KDTree, len(blocks))
	for cl, kv := range blocks {
		block := kv.Value
		if block.Len() == 0 {
			continue
		}
		pts := make([][]float64, block.Len())
		labels := make([]int, block.Len())
		for i := range pts {
			pts[i] = block.Row(i, c.dim)
			labels[i] = block.Label
		}
		c.negTrees[cl] = knn.BuildKDTree(pts, labels, block.IDs)
	}
}

// Centers returns the Voronoi cell centers of the training partition.
func (c *Classifier) Centers() [][]float64 { return c.centers }

// Positives returns the count of positive training pairs.
func (c *Classifier) Positives() int { return c.numPos }

// NegativeSizes returns the per-cluster negative pair counts.
func (c *Classifier) NegativeSizes() []int { return c.negSizes }

// Result is one classified testing pair.
type Result struct {
	// ID is the caller-assigned pair identity (index into the Classify
	// input).
	ID int
	// Score is the Eq. 5 inverse-distance-weighted score; pruned pairs
	// keep a score of negative infinity substitute (see Pruned).
	Score float64
	// Label is +1 (duplicate) when Score >= theta, else -1 (Eq. 6).
	Label int
	// Pruned marks pairs removed by §4.3.4 pruning before classification.
	Pruned bool
	// Neighbors holds the final k nearest labelled neighbors (empty for
	// pruned pairs), ascending by distance.
	Neighbors []knn.Neighbor
}

// Stats summarizes one Classify call, feeding the paper's Figs. 7, 8, 11.
type Stats struct {
	TestPairs               int
	PrunedPairs             int
	IntraClusterComparisons int64
	CrossClusterComparisons int64
	PositiveScanComparisons int64
	// PositiveGroupsSkipped counts the positive groups stage 1 ruled out
	// from their centre distance and radius without scanning their rows.
	PositiveGroupsSkipped     int64
	AdditionalClustersChecked int64
	VirtualTime               time.Duration
}

// ipair is a training pair with its global index: what Train groups into
// blocks and what a saved model stores per block.
type ipair struct {
	Idx   int
	Vec   []float64
	Label int
}

// sItem is a testing pair routed through the RDD stages.
type sItem struct {
	ID      int
	Vec     []float64
	Cluster int
}

// work counts the distance computations and partition visits spent on one
// testing pair. The counts travel in the rows so that Stats is summed from
// committed task output only: a counter bumped from inside a task would
// count a failed or speculative attempt a second time. Row types keep every
// field exported: a spilled partition is gob-encoded. The fields are 32 bits
// wide because every testing pair carries a few copies of them through the
// stages — a per-pair count is bounded by the training-set size — and the
// driver sums them into Stats' 64-bit counters.
type work struct {
	Intra      int32
	Cross      int32
	Additional int32
	// PosScan counts the distances the positive scan computed, centre
	// distances included; PosSkipped the groups it did not open.
	PosScan    int32
	PosSkipped int32
}

func (w work) plus(o work) work {
	return work{
		Intra: w.Intra + o.Intra, Cross: w.Cross + o.Cross, Additional: w.Additional + o.Additional,
		PosScan: w.PosScan + o.PosScan, PosSkipped: w.PosSkipped + o.PosSkipped,
	}
}

// addTo adds one testing pair's work to the call's counters.
func (w work) addTo(s *Stats) {
	s.IntraClusterComparisons += int64(w.Intra)
	s.CrossClusterComparisons += int64(w.Cross)
	s.AdditionalClustersChecked += int64(w.Additional)
	s.PositiveScanComparisons += int64(w.PosScan)
	s.PositiveGroupsSkipped += int64(w.PosSkipped)
}

// stage1Out carries a testing pair's state after the intra-cluster stage;
// Work holds what that stage spent (Additional is filled from the list).
type stage1Out struct {
	Item       sItem
	Neighbors  []knn.Neighbor
	Work       work
	NeedCross  bool
	Additional []int
}

// partial is a testing pair's neighbor list so far and the work behind it.
type partial struct {
	Neighbors []knn.Neighbor
	Work      work
}

// scoredRow is a classified testing pair and the work behind it.
type scoredRow struct {
	Result Result
	Work   work
}
