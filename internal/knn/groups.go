package knn

import (
	"fmt"
	"math"

	"adrdedup/internal/vecmath"
)

// MaxGroups caps the group count of a Groups, so that a query's group bounds
// fit a fixed-size array on its task's stack and the set of opened groups one
// uint32.
const MaxGroups = 32

// GroupCount is the number of groups n points are split into: about sqrt(n),
// which minimises centres plus rows for a query that has to open one group,
// up to MaxGroups.
func GroupCount(n int) int {
	return min(int(math.Ceil(math.Sqrt(float64(n)))), MaxGroups)
}

// Groups is a set of points of one label split into member-centred groups,
// laid out for an exact kNN search that can rule out a whole group without
// scanning it (Search). Every field is exported: a Groups is an RDD element,
// and a spilled partition is gob-encoded.
type Groups struct {
	// Blocks holds one group per block. Row 0 of a group is its centre: a
	// member, so the distance from a query to a centre is a distance an
	// exhaustive scan needs anyway.
	Blocks []Block
	// Radii holds, per group, the largest computed distance from its centre
	// to one of its members.
	Radii []float64
}

// NewGroups lays the given groups out for Search. Each block is one group,
// non-empty, with its centre in row 0; there may be at most MaxGroups.
func NewGroups(blocks []Block) Groups {
	if len(blocks) > MaxGroups {
		panic(fmt.Sprintf("knn: %d groups, at most %d", len(blocks), MaxGroups))
	}
	g := Groups{Blocks: blocks, Radii: make([]float64, len(blocks))}
	for i, b := range blocks {
		if b.Len() == 0 {
			panic(fmt.Sprintf("knn: group %d is empty", i))
		}
		dim := len(b.Vecs) / b.Len()
		for j := 1; j < b.Len(); j++ {
			g.Radii[i] = max(g.Radii[i], vecmath.Dist(b.Row(0, dim), b.Row(j, dim)))
		}
	}
	return g
}

// Len returns the number of points over all groups.
func (g Groups) Len() int {
	n := 0
	for _, b := range g.Blocks {
		n += b.Len()
	}
	return n
}

// Search offers the points to the query's buffer: first every group's centre,
// then the groups' other rows, group by group in ascending order of a lower
// bound on the distance from q to any member, stopping at the first group
// whose bound is strictly above the buffer's k-th distance — that group and
// every later one hold no neighbor. It returns the distances computed (one
// per centre plus one per other row of each group opened, so never more than
// there are points) and the groups left unopened. The buffer ends up exactly
// as after a scan of every point: what is skipped could not have entered.
//
// The bound. For a member p of a group with centre c and radius r, the
// triangle inequality gives d(q,p) >= d(q,c) - d(c,p) >= d(q,c) - r. That
// holds for exact distances; the buffer compares computed ones. Each of the
// three is vecmath.Dist of exactly represented inputs — dim squares summed in
// order, all non-negative, then a square root — so each carries a relative
// error below g = (dim/2+2)·2^-53, and so does r, the largest computed
// d(c,p). Chaining the three errors, a member's computed distance is at least
// dc - r - 2g·(dc+r) for the computed dc = d(q,c). The bound subtracts
// groupSlack(dim)·(dc+r) with groupSlack = 8g: the spare factor of four pays
// for the few roundings in evaluating the bound itself, each at most
// 2^-53·(dc+r). Squares that underflow break the relative argument, by less
// than sqrt(dim)·2^-537 per distance; groupAbsSlack covers that. The
// allowances cost nothing measurable: they only open a group whose bound lies
// within a few ulps of the k-th distance. A bound that is NaN (infinite
// inputs) fails the skip test and its group is scanned.
//
// A group is skipped only when bound > w, strictly, w being the k-th
// distance: then every member's computed distance is strictly above w and
// Less would refuse it whatever its index. A member at exactly w — which
// enters when its index is below the k-th neighbor's — has bound <= w and is
// scanned. Until k neighbors are held w is +Inf and nothing is skipped.
func (g Groups) Search(top *TopK, q []float64) (computed, skipped int32) {
	var buf [MaxGroups]float64
	bounds := buf[:len(g.Blocks)]
	dim := len(q)
	slack := groupSlack(dim)
	for i, b := range g.Blocks {
		// The same bits Scan would compute for the row.
		dc, r := vecmath.Dist(q, b.Row(0, dim)), g.Radii[i]
		top.Offer(Neighbor{Index: b.IDs[0], Dist: dc, Label: b.Label})
		bounds[i] = dc - r - slack*(dc+r) - groupAbsSlack
	}
	computed = int32(len(bounds))
	// Selecting the smallest unopened bound each round costs less than
	// sorting them: a round opens a group, and few queries open more than a
	// few.
	var opened uint32
	for left := len(bounds); left > 0; left-- {
		best := -1
		for i, b := range bounds {
			if opened&(1<<i) == 0 && (best < 0 || b < bounds[best]) {
				best = i
			}
		}
		if w, _ := top.Worst(); bounds[best] > w {
			return computed, int32(left)
		}
		b := g.Blocks[best]
		top.Scan(q, Block{Vecs: b.Vecs[dim:], IDs: b.IDs[1:], Label: b.Label})
		computed += int32(b.Len() - 1)
		opened |= 1 << best
	}
	return computed, 0
}

// groupSlack is the relative and groupAbsSlack the absolute floating-point
// allowance of the group bound; see Search.
func groupSlack(dim int) float64 { return float64(4*dim+16) * 0x1p-53 }

const groupAbsSlack = 0x1p-500
