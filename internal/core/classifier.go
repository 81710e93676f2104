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
	// keyed by cluster ID, grouped for knn.Groups.Search — cached on the
	// cluster so repeated Classify calls reuse it (Spark persistence), and
	// joined with the testing pairs so a task holds one cell's block.
	negBlocks *rdd.RDD[rdd.Pair[int, knn.Groups]]
	negSizes  []int
	totalNeg  int

	// positives is the full positive set, broadcast to tasks (observation
	// 1: it is small), grouped the same way, so that stage 1 can rule out a
	// whole group without scanning it.
	positives knn.Groups

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
		res, err := kmeans.Run(vecs, cfg.B, kmeans.Options{Seed: cfg.Seed})
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
	if err := c.install(negByCluster, positives); err != nil {
		return nil, err
	}

	// §4.3.4 preparation: cluster the positives, record radii.
	if cfg.Pruning != nil && len(positives) > 0 {
		posVecs := make([][]float64, len(positives))
		for i, p := range positives {
			posVecs[i] = p.Vec
		}
		res, err := kmeans.Run(posVecs, cfg.Pruning.Clusters, kmeans.Options{Seed: cfg.Seed + 1})
		if err != nil {
			return nil, fmt.Errorf("core: clustering positives for pruning: %w", err)
		}
		c.pruneCenters = res.Centers
		c.pruneRadii = kmeans.Radii(posVecs, res)
	}
	return c, nil
}

// install puts the training pairs, one negative block per cluster plus the
// positive set, into the layout Classify searches. It groups every block,
// hash-partitions and caches the negative blocks on the cluster, and
// broadcasts centers and positives.
func (c *Classifier) install(negByCluster [][]ipair, positives []ipair) error {
	var err error
	if c.positives, err = c.group(positives, +1); err != nil {
		return err
	}
	b := len(negByCluster)
	c.negSizes = make([]int, b)
	blocks := make([]rdd.Pair[int, knn.Groups], b)
	for cl, members := range negByCluster {
		groups, err := c.group(members, -1)
		if err != nil {
			return err
		}
		c.negSizes[cl] = groups.Len()
		c.totalNeg += groups.Len()
		blocks[cl] = rdd.KV(cl, groups)
	}
	avg := int64(1)
	if b > 0 {
		avg = int64(c.totalNeg/b+1) * int64(8*c.dim+16)
	}
	// Hash-partitioned into the b partitions both joins of Classify use, so
	// neither re-shuffles the training set, and materialized here, so Train
	// pays for that one shuffle and every Classify reads the cached blocks.
	// A lost block is recomputed from the training-era shuffle,
	// which Detect's ReleaseSince never drops (it is below every mark).
	c.negBlocks = rdd.PartitionBy(rdd.Parallelize(c.ctx, blocks, b).
		SetName("T-neg.blocks").
		WithBytesPerRecord(avg), b).
		SetName("T-neg.blocks").
		Cache()
	if _, err := c.negBlocks.Collect(); err != nil {
		return fmt.Errorf("core: caching negative blocks: %w", err)
	}

	// Broadcast the centers and positives to the executors.
	c.ctx.Cluster().Broadcast(int64(len(c.centers)) * int64(8*c.dim))
	c.ctx.Cluster().Broadcast(int64(c.positives.Len()) * int64(8*c.dim+8))
	return nil
}

// group k-means-groups the members of one block — the positive set or one
// negative Voronoi cell — into member-centred knn.Groups: knn.GroupCount
// groups, each led by the member nearest its centroid. The grouping is a
// function of the members in the order given and cfg.Seed; Train passes them
// in training order.
func (c *Classifier) group(members []ipair, label int) (knn.Groups, error) {
	if len(members) == 0 {
		return knn.Groups{}, nil
	}
	vecs := make([][]float64, len(members))
	for i, m := range members {
		vecs[i] = m.Vec
	}
	res, err := kmeans.Run(vecs, knn.GroupCount(len(members)), kmeans.Options{Seed: c.cfg.Seed + 2})
	if err != nil {
		return knn.Groups{}, fmt.Errorf("core: grouping training pairs: %w", err)
	}
	byGroup := make([][]ipair, len(res.Centers))
	for i, m := range members {
		byGroup[res.Assign[i]] = append(byGroup[res.Assign[i]], m)
	}
	blocks := make([]knn.Block, 0, len(byGroup))
	for g, m := range byGroup {
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
		blocks = append(blocks, flatBlock(m, c.dim, label))
	}
	return knn.NewGroups(blocks), nil
}

// flatBlock copies the members' vectors row-major into one arena — one
// allocation per group and contiguous memory for the distance scans. The
// label is stored once: a block holds one class. Train has checked every
// member's width and files it by its label, so the members fit the block.
func flatBlock(members []ipair, dim, label int) knn.Block {
	b := knn.Block{
		Vecs:  make([]float64, 0, dim*len(members)),
		IDs:   make([]int, len(members)),
		Label: label,
	}
	for i, m := range members {
		b.IDs[i] = m.Idx
		b.Vecs = append(b.Vecs, m.Vec...)
	}
	return b
}

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
// The three comparison counters count distances computed: a searched block
// charges its group centres plus the rows of the groups it opened, never more
// than its size.
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
// blocks.
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
	// Intra, Cross and PosScan count the distances each search computed,
	// centre distances included; PosSkipped the positive groups it did not
	// open.
	Intra      int32
	Cross      int32
	Additional int32
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
