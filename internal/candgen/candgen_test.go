package candgen

import (
	"reflect"
	"testing"

	"adrdedup/internal/intern"
	"adrdedup/internal/pairdist"
)

func TestMinOverlap(t *testing.T) {
	// Exactness contract: minOverlap(θ, l) is the least o with
	// float64(o) >= θ*float64(l) — the verifier's own predicate — clamped
	// to [1, l].
	for _, theta := range []float64{1e-9, 0.1, 1.0 / 3, 0.5, 0.7, 0.999, 1} {
		for l := 1; l <= 200; l++ {
			o := minOverlap(theta, l)
			if o < 1 || o > l {
				t.Fatalf("minOverlap(%v, %d) = %d outside [1, %d]", theta, l, o, l)
			}
			if float64(o) < theta*float64(l) && o < l {
				t.Fatalf("minOverlap(%v, %d) = %d below threshold", theta, l, o)
			}
			if o > 1 && float64(o-1) >= theta*float64(l) {
				t.Fatalf("minOverlap(%v, %d) = %d not minimal", theta, l, o)
			}
		}
	}
	if got := minOverlap(1, 17); got != 17 {
		t.Errorf("minOverlap(1, 17) = %d, want 17 (θ=1 demands identity)", got)
	}
}

func TestTotalPairs(t *testing.T) {
	cases := []struct {
		n, minArrival int
		want          int64
	}{
		{0, 0, 0},
		{1, 0, 0},
		{2, 0, 1},
		{5, 0, 10},
		{5, 2, 9}, // all 10 minus the 1 old-old pair {0,1}
		{5, 4, 4}, // only pairs touching record 4
		{5, 5, 0}, // batch empty
		{5, 9, 0},
		{400, 0, 79800},
	}
	for _, c := range cases {
		if got := TotalPairs(c.n, c.minArrival); got != c.want {
			t.Errorf("TotalPairs(%d, %d) = %d, want %d", c.n, c.minArrival, got, c.want)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	sigs := [][]uint32{{1}, {1}}
	for _, p := range []Params{
		{Theta: 0},
		{Theta: -0.5},
		{Theta: 1.5},
		{Theta: 0.5, MinArrival: -1},
	} {
		if _, _, err := Pairs(testEngine(0), sigs, p); err == nil {
			t.Errorf("Pairs with %+v: want validation error", p)
		}
	}
	if _, _, err := Pairs(testEngine(0), sigs, Params{Theta: 0.5}); err != nil {
		t.Errorf("Pairs with valid params: %v", err)
	}
}

// TestPairsSmallCorpora pins Pairs at the edges of its input: no records, one
// record, only empty signatures (paired among themselves at similarity 1),
// empty signatures beside non-empty ones, θ 1 over duplicates, and a
// MinArrival at or past the corpus end, which generates nothing and does no
// work. Wherever it probes, its pairs are the oracle's and its Stats are
// those of a fresh Index given the corpus in one Append and probed from
// MinArrival.
func TestPairsSmallCorpora(t *testing.T) {
	cases := []struct {
		name       string
		theta      float64
		sigs       [][]uint32
		minArrival int
	}{
		{"no records", 0.5, nil, 0},
		{"one record", 0.5, [][]uint32{{1, 2}}, 0},
		{"only empty signatures", 0.5, [][]uint32{nil, {}, nil}, 0},
		{"empty beside non-empty", 0.5, [][]uint32{{1, 2}, nil, {1, 2, 3}, {}, {4}}, 0},
		{"theta 1 over duplicates", 1, [][]uint32{{1, 2}, {1, 2}, {1, 2, 3}, {1, 2}}, 1},
		{"MinArrival at the end", 0.5, [][]uint32{{1}, {1}}, 2},
		{"MinArrival past the end", 0.5, [][]uint32{{1}, {1}}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, st, err := Pairs(testEngine(0), tc.sigs, Params{Theta: tc.theta, Partitions: 2, MinArrival: tc.minArrival})
			if err != nil {
				t.Fatal(err)
			}
			if tc.minArrival >= len(tc.sigs) {
				if got != nil || st != (Stats{Records: len(tc.sigs)}) {
					t.Fatalf("Pairs from %d of %d records = %v, %+v; want no pairs and no work",
						tc.minArrival, len(tc.sigs), got, st)
				}
				return
			}
			if want := canonPairs(naivePairs(tc.sigs, tc.theta, tc.minArrival)); !reflect.DeepEqual(canonPairs(got), want) {
				t.Fatalf("Pairs emitted %v, oracle %v", got, want)
			}
			empty := 0
			for _, sig := range tc.sigs {
				if len(sig) == 0 {
					empty++
				}
			}
			if st.Records != len(tc.sigs) || st.EmptyRecords != empty || st.Emitted != int64(len(got)) {
				t.Errorf("Stats %+v for %d pairs over %d records, %d empty", st, len(got), len(tc.sigs), empty)
			}
			ix, err := NewIndex(tc.theta)
			if err != nil {
				t.Fatal(err)
			}
			ix.Append(tc.sigs)
			if _, want, err := ix.Probe(testEngine(0), tc.minArrival, 2); err != nil || st != want {
				t.Errorf("Pairs Stats %+v, a one-Append index's %+v (err %v)", st, want, err)
			}
		})
	}
}

func TestSignatures(t *testing.T) {
	it := intern.New()
	feats := []pairdist.Features{
		{DrugIDs: it.SortedSet([]string{"aspirin"}),
			ADRIDs:  it.SortedSet([]string{"nausea", "headache"}),
			DescIDs: it.SortedSet([]string{"aspirin", "sever"})},
		{}, // no tokens at all
	}
	sigs, err := Signatures(feats)
	if err != nil {
		t.Fatal(err)
	}
	// Union of all three sets, sorted, deduplicated: 4 distinct tokens.
	if len(sigs[0]) != 4 {
		t.Errorf("signature 0 = %v, want 4 distinct token IDs", sigs[0])
	}
	for i := 1; i < len(sigs[0]); i++ {
		if sigs[0][i-1] >= sigs[0][i] {
			t.Errorf("signature 0 not strictly increasing: %v", sigs[0])
		}
	}
	if sigs[1] != nil {
		t.Errorf("empty feature signature = %v, want nil", sigs[1])
	}
}
