package knn

import "math"

// Block is a set of training points laid out for scanning: the vectors
// row-major in one flat arena, the training index of each row beside it, and
// one label shared by every row. The row width is the query's dimension.
type Block struct {
	// Vecs holds len(IDs) rows of equal width, back to back.
	Vecs []float64
	// IDs is the training index of each row.
	IDs []int
	// Label is the label of every point in the block.
	Label int
}

// Len returns the number of points in the block.
func (b Block) Len() int { return len(b.IDs) }

// Row returns the i-th vector of a block whose rows are dim wide. The slice
// aliases the arena.
func (b Block) Row(i, dim int) []float64 {
	return b.Vecs[i*dim : (i+1)*dim : (i+1)*dim]
}

// TopK is a bounded top-k buffer: the k nearest of the neighbors offered so
// far, ascending under Less. Offering costs one comparison against the
// current k-th neighbor for a candidate that cannot enter and a sorted
// insertion into at most k slots for one that can, which beats a heap at the
// paper's k of 5-21 and allocates nothing once the slots exist.
type TopK struct {
	k  int
	ns []Neighbor
	// sqBound rejects on the squared distance alone: a candidate whose
	// squared distance exceeds it has a distance strictly above the k-th
	// neighbor's. +Inf until k neighbors are held.
	sqBound float64
}

// NewTopK returns an empty buffer of k slots that keeps its neighbors in
// buf's backing array, growing it only if it has room for fewer than k.
func NewTopK(k int, buf []Neighbor) TopK {
	if k < 0 {
		k = 0
	}
	return TopK{k: k, ns: buf[:0], sqBound: math.Inf(1)}
}

// Neighbors returns the neighbors held, ascending under Less. The slice is
// the buffer's own storage.
func (t *TopK) Neighbors() []Neighbor { return t.ns }

// Worst returns the distance of the k-th nearest neighbor held and whether
// k neighbors are held at all; until then nothing can be ruled out.
func (t *TopK) Worst() (float64, bool) {
	if len(t.ns) < t.k || t.k == 0 {
		return math.Inf(1), false
	}
	return t.ns[t.k-1].Dist, true
}

// Offer inserts n if it is among the k nearest seen so far.
func (t *TopK) Offer(n Neighbor) {
	ns := t.ns
	if len(ns) == t.k {
		if t.k == 0 || !Less(n, ns[t.k-1]) {
			return
		}
		ns = ns[:t.k-1]
	}
	i := len(ns)
	ns = append(ns, n)
	for ; i > 0 && Less(n, ns[i-1]); i-- {
		ns[i] = ns[i-1]
	}
	ns[i] = n
	t.ns = ns
	if len(ns) == t.k {
		// Comparing squares is not quite comparing distances: two
		// different squares can round to the same square root, and then
		// Less decides on Index, so a candidate whose square is above the
		// k-th neighbor's may still belong in the buffer. Correctly
		// rounded sqrt is monotone, though, so with u the next float
		// above the k-th distance, sq > u*u implies sqrt(sq) >= u: only
		// such candidates are rejected unseen. Every other one has its
		// root taken and is placed by Less.
		u := math.Nextafter(ns[t.k-1].Dist, math.Inf(1))
		t.sqBound = u * u
	}
}

// OfferSq offers the point at squared distance sq from the query, taking the
// square root only if the point can enter the buffer.
func (t *TopK) OfferSq(index int, sq float64, label int) {
	if sq > t.sqBound {
		return
	}
	t.Offer(Neighbor{Index: index, Dist: math.Sqrt(sq), Label: label})
}

// Scan offers every point of the block. Distances are the same bits
// vecmath.Dist returns: the squares are summed in coordinate order.
func (t *TopK) Scan(q []float64, b Block) {
	dim := len(q)
	vecs := b.Vecs[:len(b.IDs)*dim]
	bound := t.sqBound
	for _, id := range b.IDs {
		row := vecs[:dim]
		vecs = vecs[dim:]
		var sq float64
		for i, x := range row {
			d := q[i] - x
			sq += d * d
		}
		if sq > bound {
			continue
		}
		t.Offer(Neighbor{Index: id, Dist: math.Sqrt(sq), Label: b.Label})
		bound = t.sqBound
	}
}

// MergeSorted returns the k nearest of two neighbor lists that are each
// ascending under Less and share no training index, in one linear pass.
// Neither input is modified.
func MergeSorted(k int, a, b []Neighbor) []Neighbor {
	n := len(a) + len(b)
	if n > k {
		n = k
	}
	if n <= 0 {
		return nil
	}
	out := make([]Neighbor, 0, n)
	for len(out) < n {
		if len(b) == 0 || (len(a) > 0 && !Less(b[0], a[0])) {
			out = append(out, a[0])
			a = a[1:]
		} else {
			out = append(out, b[0])
			b = b[1:]
		}
	}
	return out
}
