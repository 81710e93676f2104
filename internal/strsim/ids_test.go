package strsim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// sortedSet turns arbitrary fuzz bytes into a sorted deduplicated ID set.
func sortedSet(raw []uint8) []uint32 {
	if len(raw) == 0 {
		return nil
	}
	ids := make([]uint32, len(raw))
	for i, v := range raw {
		ids[i] = uint32(v % 40)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// stringsOf maps an ID set to an equivalent string set, so the ID kernel
// can be compared bit-for-bit with the map-based string reference, Jaccard.
func stringsOf(ids []uint32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(rune('A' + id))
	}
	return out
}

func TestJaccardSortedIDsEdgeCases(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want float64
	}{
		{nil, nil, 1},
		{nil, []uint32{1}, 0},
		{[]uint32{1}, nil, 0},
		{[]uint32{1, 2}, []uint32{1, 2}, 1},
		{[]uint32{1, 2}, []uint32{3, 4}, 0}, // disjoint ranges (early-out)
		{[]uint32{1, 3}, []uint32{2, 4}, 0}, // interleaved, no overlap
		{[]uint32{1, 2, 3}, []uint32{2, 3, 4}, 0.5},
	}
	for _, c := range cases {
		if got := JaccardSortedIDs(c.a, c.b); got != c.want {
			t.Errorf("JaccardSortedIDs(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := JaccardDistanceSortedIDs(c.a, c.b); got != 1-c.want {
			t.Errorf("JaccardDistanceSortedIDs(%v, %v) = %v, want %v", c.a, c.b, got, 1-c.want)
		}
	}
}

// TestJaccardSortedIDsMatchesStringKernel is the core bit-identity claim:
// the merge scan over ID sets returns the exact float the map-based string
// kernel returns for the equivalent sets.
func TestJaccardSortedIDsMatchesStringKernel(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		a, b := sortedSet(ra), sortedSet(rb)
		return JaccardSortedIDs(a, b) == Jaccard(stringsOf(a), stringsOf(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestJaccardSimUpperBound(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		a, b := sortedSet(ra), sortedSet(rb)
		return JaccardSortedIDs(a, b) <= JaccardSimUpperBound(len(a), len(b))+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if JaccardSimUpperBound(0, 0) != 1 || JaccardSimUpperBound(0, 3) != 0 {
		t.Error("empty-set bounds wrong")
	}
	if JaccardSimUpperBound(2, 4) != 0.5 || JaccardSimUpperBound(4, 2) != 0.5 {
		t.Error("length-ratio bound not symmetric")
	}
}

func TestJaccardSimAtLeastMatchesExact(t *testing.T) {
	thresholds := []float64{0, 0.1, 0.25, 0.5, 2.0 / 3, 0.75, 0.9, 1}
	f := func(ra, rb []uint8, ti uint8) bool {
		a, b := sortedSet(ra), sortedSet(rb)
		minSim := thresholds[int(ti)%len(thresholds)]
		exact := JaccardSortedIDs(a, b) >= minSim
		return JaccardSimAtLeast(a, b, minSim) == exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkJaccardSortedIDs(b *testing.B) {
	x := []uint32{3, 17, 29, 41, 56, 77, 81, 90}
	y := []uint32{3, 18, 29, 44, 56, 79, 81, 95}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JaccardSortedIDs(x, y)
	}
}

func TestUnionSortedIDs(t *testing.T) {
	cases := []struct {
		sets [][]uint32
		want []uint32
	}{
		{nil, nil},
		{[][]uint32{nil, nil, nil}, nil},
		{[][]uint32{{1, 3}, nil, {2}}, []uint32{1, 2, 3}},
		{[][]uint32{{1, 2, 3}, {1, 2, 3}}, []uint32{1, 2, 3}},
		{[][]uint32{{5}, {1}, {3}}, []uint32{1, 3, 5}},
		{[][]uint32{{0, 7, 9}, {7, 8}, {0, 9, 10}}, []uint32{0, 7, 8, 9, 10}},
	}
	for _, c := range cases {
		if got := UnionSortedIDs(c.sets...); !slices.Equal(got, c.want) {
			t.Errorf("UnionSortedIDs(%v) = %v, want %v", c.sets, got, c.want)
		}
	}
}

func TestUnionSortedIDsRandomizedAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		sets := make([][]uint32, rng.Intn(5))
		want := map[uint32]bool{}
		for i := range sets {
			raw := make([]uint8, rng.Intn(12))
			rng.Read(raw)
			sets[i] = sortedSet(raw)
			for _, id := range sets[i] {
				want[id] = true
			}
		}
		got := UnionSortedIDs(sets...)
		if len(got) != len(want) {
			t.Fatalf("union of %v has %d ids, want %d", sets, len(got), len(want))
		}
		for i, id := range got {
			if i > 0 && got[i-1] >= id {
				t.Fatalf("union of %v not strictly increasing: %v", sets, got)
			}
			if !want[id] {
				t.Fatalf("union of %v contains foreign id %d", sets, id)
			}
		}
		// The result must be fresh storage: mutating it must not alias any
		// input set.
		if len(got) > 0 {
			got[0] = ^uint32(0)
			for _, s := range sets {
				for _, id := range s {
					if id == ^uint32(0) {
						t.Fatal("UnionSortedIDs aliased an input slice")
					}
				}
			}
		}
	}
}
