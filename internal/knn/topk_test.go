package knn

import (
	"math"
	"math/rand"
	"testing"

	"adrdedup/internal/rdd"
	"adrdedup/internal/vecmath"
)

// The reference kernel the buffer replaced: one candidate per training point
// with its square root taken, a heap-based bounded selection, and a map to
// de-duplicate merged lists. Tests compare the buffer against it bit for bit.

func refTopK(q []float64, b Block, k int) []Neighbor {
	cands := make([]Neighbor, b.Len())
	for i, id := range b.IDs {
		cands[i] = Neighbor{Index: id, Dist: vecmath.Dist(q, b.Row(i, len(q))), Label: b.Label}
	}
	return rdd.BoundedMin(cands, k, Less)
}

func refMerge(k int, lists ...[]Neighbor) []Neighbor {
	var all []Neighbor
	seen := make(map[int]bool)
	for _, l := range lists {
		for _, n := range l {
			if !seen[n.Index] {
				seen[n.Index] = true
				all = append(all, n)
			}
		}
	}
	return rdd.BoundedMin(all, k, Less)
}

func sameNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Label != b[i].Label ||
			math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// gridBlock draws n points with coordinates on a grid of step 1/20 — which
// binary floats cannot represent, so distances that are equal on paper differ
// in their last bits — and repeats every third point, so exact ties exist
// too. IDs start at firstID and are in no order, so a tie met late in a scan
// can carry the lower index.
func gridBlock(rng *rand.Rand, n, dim, firstID, label int) Block {
	b := Block{Vecs: make([]float64, 0, n*dim), IDs: rng.Perm(n), Label: label}
	for i := 0; i < n; i++ {
		b.IDs[i] += firstID
		if i > 0 && i%3 == 0 {
			b.Vecs = append(b.Vecs, b.Row(rng.Intn(i), dim)...)
			continue
		}
		for d := 0; d < dim; d++ {
			b.Vecs = append(b.Vecs, float64(rng.Intn(21))/20)
		}
	}
	return b
}

func gridQuery(rng *rand.Rand, dim int) []float64 {
	q := make([]float64, dim)
	for d := range q {
		q[d] = float64(rng.Intn(21)) / 20
	}
	return q
}

// sqrtCollisions counts adjacent pairs, in distance order, whose squared
// distances differ while their square roots do not: the case a bound on the
// square alone gets wrong.
func sqrtCollisions(q []float64, b Block) int {
	all := refTopK(q, b, b.Len())
	sq := make(map[int]float64, b.Len())
	for i, id := range b.IDs {
		sq[id] = vecmath.SqDist(q, b.Row(i, len(q)))
	}
	n := 0
	for i := 1; i < len(all); i++ {
		if all[i].Dist == all[i-1].Dist && sq[all[i].Index] != sq[all[i-1].Index] {
			n++
		}
	}
	return n
}

func TestTopKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	collisions, queries := 0, 0
	for _, dim := range []int{1, 7, 16} {
		for _, n := range []int{0, 1, 5, 121, 400} {
			neg := gridBlock(rng, n, dim, 0, -1)
			pos := gridBlock(rng, n/4, dim, n, +1)
			for _, k := range []int{1, 9, 21, n + n/4 + 3} {
				for trial := 0; trial < 8; trial++ {
					q := gridQuery(rng, dim)
					queries++
					collisions += sqrtCollisions(q, neg)
					wantNeg, wantPos := refTopK(q, neg, k), refTopK(q, pos, k)

					top := NewTopK(k, nil)
					top.Scan(q, neg)
					if got := top.Neighbors(); !sameNeighbors(got, wantNeg) {
						t.Fatalf("dim=%d n=%d k=%d: scan\n got %v\nwant %v", dim, n, k, got, wantNeg)
					}
					// Straight on over a second block: the top k of the union.
					top.Scan(q, pos)
					want := refMerge(k, wantNeg, wantPos)
					if got := top.Neighbors(); !sameNeighbors(got, want) {
						t.Fatalf("dim=%d n=%d k=%d: two-block scan\n got %v\nwant %v", dim, n, k, got, want)
					}
					if got := MergeSorted(k, wantNeg, wantPos); !sameNeighbors(got, want) {
						t.Fatalf("dim=%d n=%d k=%d: MergeSorted\n got %v\nwant %v", dim, n, k, got, want)
					}
					// Merge takes unsorted lists that overlap.
					overlap := append(append([]Neighbor(nil), wantPos...), wantNeg...)
					rng.Shuffle(len(overlap), func(i, j int) { overlap[i], overlap[j] = overlap[j], overlap[i] })
					if got := Merge(k, wantNeg, overlap, wantPos); !sameNeighbors(got, want) {
						t.Fatalf("dim=%d n=%d k=%d: Merge\n got %v\nwant %v", dim, n, k, got, want)
					}

					// Query numbers the points by position.
					byPos := Block{Vecs: neg.Vecs, IDs: make([]int, neg.Len()), Label: neg.Label}
					rows := make([][]float64, neg.Len())
					labels := make([]int, neg.Len())
					for i := range rows {
						byPos.IDs[i], rows[i], labels[i] = i, neg.Row(i, dim), neg.Label
					}
					if got, want := Query(q, rows, labels, k), refTopK(q, byPos, k); !sameNeighbors(got, want) {
						t.Fatalf("dim=%d n=%d k=%d: Query\n got %v\nwant %v", dim, n, k, got, want)
					}
				}
			}
		}
	}
	if collisions == 0 {
		t.Error("no two squared distances shared a square root; the data does not reach the collision case")
	}
	t.Logf("%d queries, %d equal-sqrt collisions among their candidates", queries, collisions)
}

// TestTopKEqualSqrtLowerIndexEnters pins the case the squared bound must not
// reject: a candidate whose square is above the k-th neighbor's but rounds
// to the same distance, with a lower index, belongs in the buffer.
func TestTopKEqualSqrtLowerIndexEnters(t *testing.T) {
	found := 0
	for s := 0.26; s < 1 && found < 50; s += 0.0137 {
		up := math.Nextafter(s, 2)
		if math.Sqrt(s) != math.Sqrt(up) {
			continue
		}
		found++
		top := NewTopK(1, nil)
		top.OfferSq(5, s, -1)
		top.OfferSq(2, up, +1)
		if got := top.Neighbors(); len(got) != 1 || got[0].Index != 2 {
			t.Fatalf("sq %v then %v (same sqrt): held %v, want index 2", s, up, got)
		}
		top.OfferSq(9, s, -1) // same distance, higher index: stays out
		if got := top.Neighbors(); got[0].Index != 2 {
			t.Fatalf("higher index displaced an equal distance: %v", got)
		}
	}
	if found == 0 {
		t.Fatal("found no adjacent floats sharing a square root")
	}
}

func TestTopKEdgeCases(t *testing.T) {
	q := []float64{0.5}
	b := Block{Vecs: []float64{0.1, 0.9, 0.5}, IDs: []int{7, 8, 9}, Label: -1}
	for _, k := range []int{0, -3} {
		top := NewTopK(k, nil)
		top.Scan(q, b)
		top.Offer(Neighbor{Index: 1})
		if got := top.Neighbors(); len(got) != 0 {
			t.Errorf("k=%d held %v", k, got)
		}
		if _, full := top.Worst(); full {
			t.Errorf("k=%d reports a k-th neighbor", k)
		}
	}
	top := NewTopK(2, nil)
	if w, full := top.Worst(); full || !math.IsInf(w, 1) {
		t.Errorf("empty buffer Worst = %v, %v", w, full)
	}
	top.Scan(q, Block{Label: -1})
	top.Scan(q, b)
	if w, full := top.Worst(); !full || w != 0.4 {
		t.Errorf("Worst = %v, %v, want 0.4, true", w, full)
	}
	if got := top.Neighbors(); got[0].Index != 9 || got[1].Index != 7 {
		t.Errorf("neighbors = %v", got)
	}
	if got := MergeSorted(0, top.Neighbors(), nil); got != nil {
		t.Errorf("MergeSorted k=0 = %v", got)
	}
}

func TestTopKScanDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	neg := gridBlock(rng, 121, 7, 0, -1)
	pos := gridBlock(rng, 400, 7, 121, +1)
	q := gridQuery(rng, 7)
	buf := make([]Neighbor, 0, 9)
	allocs := testing.AllocsPerRun(100, func() {
		top := NewTopK(9, buf)
		top.Scan(q, neg)
		top.Scan(q, pos)
	})
	if allocs != 0 {
		t.Errorf("scan into a caller-supplied buffer allocated %v times per run", allocs)
	}
}

// FuzzTopK drives the buffer with arbitrary block shapes and coordinates and
// holds it to the reference kernel bit for bit. Each coordinate is one input
// byte on a grid of step 1/20, so ties and equal-sqrt collisions are the
// common case, not the rare one. The committed corpus under
// testdata/fuzz/FuzzTopK seeds tie-heavy blocks, k over the block size, k of
// zero, an empty block and a mid-block split.
func FuzzTopK(f *testing.F) {
	f.Add(uint8(7), uint8(9), uint8(3), []byte("\x00\x05\x0a\x0f\x14\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e"))
	f.Add(uint8(1), uint8(1), uint8(0), []byte("\x0a\x0a\x0a\x0a\x0a"))
	f.Add(uint8(16), uint8(21), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, dimByte, kByte, split uint8, data []byte) {
		dim := int(dimByte%16) + 1
		k := int(kByte % 24)
		if len(data) < dim {
			return
		}
		coord := func(b byte) float64 { return float64(b%21) / 20 }
		q := make([]float64, dim)
		for d := range q {
			q[d] = coord(data[d])
		}
		data = data[dim:]
		n := len(data) / dim
		all := Block{Vecs: make([]float64, n*dim), IDs: make([]int, n), Label: -1}
		for i := range all.Vecs {
			all.Vecs[i] = coord(data[i])
		}
		// Descending: a tie met later in the scan has the lower index.
		for i := range all.IDs {
			all.IDs[i] = n - 1 - i
		}
		cut := 0
		if n > 0 {
			cut = int(split) % (n + 1)
		}
		a := Block{Vecs: all.Vecs[:cut*dim], IDs: all.IDs[:cut], Label: -1}
		b := Block{Vecs: all.Vecs[cut*dim:], IDs: all.IDs[cut:], Label: -1}

		want := refTopK(q, all, k)
		top := NewTopK(k, nil)
		top.Scan(q, a)
		top.Scan(q, b)
		if got := top.Neighbors(); !sameNeighbors(got, want) {
			t.Fatalf("dim=%d k=%d n=%d cut=%d: scan\n got %v\nwant %v", dim, k, n, cut, got, want)
		}
		if got := MergeSorted(k, refTopK(q, a, k), refTopK(q, b, k)); !sameNeighbors(got, want) {
			t.Fatalf("dim=%d k=%d n=%d cut=%d: MergeSorted\n got %v\nwant %v", dim, k, n, cut, got, want)
		}
	})
}
