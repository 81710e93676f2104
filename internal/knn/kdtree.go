package knn

import (
	"sort"

	"adrdedup/internal/vecmath"
)

// KDTree is an in-memory k-d tree over labelled vectors — the per-block
// local index of Zhang et al. (related work §6; they use R-trees, the
// in-memory analogue is a k-d tree). It accelerates intra-block kNN search
// when blocks are large and the dimensionality is small, which is exactly
// the pair-vector setting (7 dims).
type KDTree struct {
	dim    int
	pts    [][]float64
	labels []int
	ids    []int
	nodes  []kdNode
	root   int
}

type kdNode struct {
	point       int // index into pts
	axis        int
	left, right int // node indices; -1 = none
}

// BuildKDTree indexes the vectors. Labels and ids may be nil (zero labels,
// positional ids). The build is O(n log^2 n) from re-sorting per level.
func BuildKDTree(pts [][]float64, labels, ids []int) *KDTree {
	t := &KDTree{pts: pts, labels: labels, ids: ids, root: -1}
	if len(pts) == 0 {
		return t
	}
	t.dim = len(pts[0])
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	t.nodes = make([]kdNode, 0, len(pts))
	t.root = t.build(order, 0)
	return t
}

func (t *KDTree) build(order []int, depth int) int {
	if len(order) == 0 {
		return -1
	}
	axis := depth % t.dim
	sort.Slice(order, func(i, j int) bool {
		return t.pts[order[i]][axis] < t.pts[order[j]][axis]
	})
	mid := len(order) / 2
	node := kdNode{point: order[mid], axis: axis}
	t.nodes = append(t.nodes, node)
	self := len(t.nodes) - 1
	left := append([]int(nil), order[:mid]...)
	right := append([]int(nil), order[mid+1:]...)
	t.nodes[self].left = t.build(left, depth+1)
	t.nodes[self].right = t.build(right, depth+1)
	return self
}

// Len returns the number of indexed points.
func (t *KDTree) Len() int { return len(t.pts) }

// Query returns the k nearest indexed points to q, ascending by distance,
// along with the number of distance computations performed (the work an
// exhaustive scan would spend on every point).
func (t *KDTree) Query(q []float64, k int) ([]Neighbor, int64) {
	if t.root < 0 || k <= 0 {
		return nil, 0
	}
	top := NewTopK(k, nil)
	computed := t.Search(q, &top)
	return top.Neighbors(), computed
}

// Search offers the indexed points that can still enter top, pruning
// subtrees against its current k-th distance, and returns the number of
// distance computations performed.
func (t *KDTree) Search(q []float64, top *TopK) int64 {
	s := kdSearch{tree: t, q: q, top: top}
	s.walk(t.root)
	return s.computed
}

type kdSearch struct {
	tree     *KDTree
	q        []float64
	top      *TopK
	computed int64
}

func (s *kdSearch) walk(node int) {
	if node < 0 {
		return
	}
	t := s.tree
	n := t.nodes[node]
	p := t.pts[n.point]
	s.computed++
	s.offer(n.point, vecmath.SqDist(s.q, p))

	diff := s.q[n.axis] - p[n.axis]
	near, far := n.left, n.right
	if diff > 0 {
		near, far = n.right, n.left
	}
	s.walk(near)
	// The far subtree can only contain a better neighbor when the
	// splitting plane is closer than the current k-th best.
	if worst, full := s.top.Worst(); !full || abs(diff) < worst {
		s.walk(far)
	}
}

func (s *kdSearch) offer(point int, sq float64) {
	label := 0
	if s.tree.labels != nil {
		label = s.tree.labels[point]
	}
	id := point
	if s.tree.ids != nil {
		id = s.tree.ids[point]
	}
	s.top.OfferSq(id, sq, label)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
