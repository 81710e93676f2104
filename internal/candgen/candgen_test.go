package candgen

import (
	"math/rand"
	"strings"
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
		{Theta: 0.5, Mode: Mode(9)},
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

func TestModeString(t *testing.T) {
	if OneD.String() != "prefix-1d" || TwoD.String() != "prefix-2d" {
		t.Errorf("Mode strings = %q, %q", OneD.String(), TwoD.String())
	}
}

func TestSignatures(t *testing.T) {
	it := intern.New()
	feats := []pairdist.Features{
		{Interned: true, DrugIDs: it.SortedSet([]string{"aspirin"}),
			ADRIDs:  it.SortedSet([]string{"nausea", "headache"}),
			DescIDs: it.SortedSet([]string{"aspirin", "sever"})},
		{Interned: true}, // empty but interned
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

	if _, err := Signatures([]pairdist.Features{{}}); err == nil ||
		!strings.Contains(err.Error(), "not interned") {
		t.Errorf("Signatures on uninterned feature: err = %v", err)
	}
}

// TestPlanInvariants checks the structural contract of the driver-side plan
// on random corpora: order/pos are inverses, lengths ascend along the
// processing order, prefixes follow the l - minOverlap + 1 formula, and the
// rank transform is a bijection (set sizes preserved, output sorted).
func TestPlanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		sigs := randomCorpus(rng, 1+rng.Intn(60), 300)
		theta := 0.05 + 0.95*rng.Float64()
		pl := buildPlan(sigs, theta)
		if len(pl.order)+len(pl.empty) != len(sigs) {
			t.Fatalf("order %d + empty %d != records %d", len(pl.order), len(pl.empty), len(sigs))
		}
		for p, id := range pl.order {
			if pl.pos[id] != int32(p) {
				t.Fatalf("pos[%d] = %d, want %d", id, pl.pos[id], p)
			}
			if int(pl.lens[p]) != len(pl.ordered[id]) {
				t.Fatalf("lens[%d] = %d, want %d", p, pl.lens[p], len(pl.ordered[id]))
			}
			if p > 0 && pl.lens[p-1] > pl.lens[p] {
				t.Fatalf("lens not ascending at %d: %v", p, pl.lens)
			}
			wantPrefix := len(sigs[id]) - minOverlap(theta, len(sigs[id])) + 1
			if int(pl.prefixLen[id]) != wantPrefix {
				t.Fatalf("prefixLen[%d] = %d, want %d", id, pl.prefixLen[id], wantPrefix)
			}
		}
		for _, id := range pl.empty {
			if pl.pos[id] != -1 {
				t.Fatalf("empty record %d has pos %d, want -1", id, pl.pos[id])
			}
			if len(sigs[id]) != 0 {
				t.Fatalf("record %d listed empty but has %d tokens", id, len(sigs[id]))
			}
		}
		for id, sig := range sigs {
			rs := pl.ordered[id]
			if len(rs) != len(sig) {
				t.Fatalf("rank transform changed set size of %d: %d -> %d", id, len(sig), len(rs))
			}
			for i := 1; i < len(rs); i++ {
				if rs[i-1] >= rs[i] {
					t.Fatalf("rank-space signature %d not strictly increasing: %v", id, rs)
				}
			}
		}
	}
}

// TestRankOrderPutsRareTokensFirst pins the point of the frequency ordering:
// the token appearing in fewest records gets the lowest rank, so it leads
// every prefix that contains it.
func TestRankOrderPutsRareTokensFirst(t *testing.T) {
	sigs := [][]uint32{
		{10, 20}, {10, 20}, {10, 20}, {10, 30},
	}
	// Frequencies: 10→4, 20→3, 30→1. Ranks: 30→0, 20→1, 10→2.
	pl := buildPlan(sigs, 0.5)
	want := []uint32{0, 2} // record 3 = {10, 30} → ranks {2, 0} sorted
	got := pl.ordered[3]
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("rank-space signature of {10,30} = %v, want %v", got, want)
	}
}
