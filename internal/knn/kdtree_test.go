package knn

import (
	"math"
	"testing"
)

func TestKDTreeMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		n, dim, k int
		seed      int64
	}{
		{n: 500, dim: 2, k: 5, seed: 1},
		{n: 1000, dim: 7, k: 9, seed: 2},
		{n: 50, dim: 3, k: 60, seed: 3}, // k > n
		{n: 1, dim: 4, k: 1, seed: 4},
	} {
		pts := randVecs(tc.n, tc.dim, tc.seed)
		labels := make([]int, tc.n)
		for i := range labels {
			labels[i] = 1 - 2*(i%2)
		}
		tree := BuildKDTree(pts, labels, nil)
		if tree.Len() != tc.n {
			t.Fatalf("Len = %d", tree.Len())
		}
		queries := randVecs(30, tc.dim, tc.seed+100)
		for qi, q := range queries {
			got, computed := tree.Query(q, tc.k)
			want := Query(q, pts, labels, tc.k)
			if len(got) != len(want) {
				t.Fatalf("n=%d dim=%d k=%d query %d: %d neighbors, want %d",
					tc.n, tc.dim, tc.k, qi, len(got), len(want))
			}
			for j := range got {
				// Ties can reorder equal distances; compare by distance.
				if math.Abs(got[j].Dist-want[j].Dist) > 1e-12 {
					t.Fatalf("query %d neighbor %d: dist %v vs %v", qi, j, got[j].Dist, want[j].Dist)
				}
			}
			if computed <= 0 || computed > int64(tc.n) {
				t.Fatalf("computed = %d for n = %d", computed, tc.n)
			}
		}
	}
}

func TestKDTreePrunesInLowDimensions(t *testing.T) {
	// In 2 dimensions with many points, the tree must visit far fewer
	// points than an exhaustive scan.
	pts := randVecs(20000, 2, 5)
	tree := BuildKDTree(pts, nil, nil)
	q := []float64{0.5, 0.5}
	_, computed := tree.Query(q, 5)
	if computed > 4000 {
		t.Errorf("visited %d of 20000 points; pruning ineffective", computed)
	}
}

func TestKDTreeCustomIDs(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}}
	ids := []int{100, 200, 300}
	tree := BuildKDTree(pts, nil, ids)
	got, _ := tree.Query([]float64{0.9}, 1)
	if len(got) != 1 || got[0].Index != 200 {
		t.Errorf("nearest = %+v, want id 200", got)
	}
}

func TestKDTreeEmpty(t *testing.T) {
	tree := BuildKDTree(nil, nil, nil)
	got, computed := tree.Query([]float64{1}, 3)
	if got != nil || computed != 0 {
		t.Errorf("empty tree query = %v, %d", got, computed)
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	pts := make([][]float64, 100)
	for i := range pts {
		pts[i] = []float64{1, 2, 3}
	}
	tree := BuildKDTree(pts, nil, nil)
	got, _ := tree.Query([]float64{1, 2, 3}, 10)
	if len(got) != 10 {
		t.Fatalf("got %d neighbors", len(got))
	}
	for _, n := range got {
		if n.Dist != 0 {
			t.Errorf("distance %v on identical points", n.Dist)
		}
	}
}

func BenchmarkKDTreeVsLinear(b *testing.B) {
	pts := randVecs(50000, 7, 9)
	labels := make([]int, len(pts))
	tree := BuildKDTree(pts, labels, nil)
	q := randVecs(1, 7, 10)[0]
	b.Run("kdtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree.Query(q, 9)
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Query(q, pts, labels, 9)
		}
	})
}

func BenchmarkKDTreeQuery(b *testing.B) {
	pts := randVecs(4000, 7, 9)
	labels := make([]int, len(pts))
	tree := BuildKDTree(pts, labels, nil)
	queries := randVecs(64, 7, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Query(queries[i%len(queries)], 9)
	}
}
