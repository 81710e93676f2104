package candgen

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"adrdedup/internal/cluster"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
)

// Differential recall suite: randomized signature corpora, run through the
// staged prefix-filtered generator across partition counts and under fault
// injection, must emit *exactly* the pair set of two
// independent oracles — BruteForcePairs (same predicate, quadratic scan)
// and a map-based naive Jaccard implemented from scratch below. Exactness
// is the contract: prefix filtering must never prune a pair at or above θ
// and verification must never admit one below it.

// naiveAtLeast is the from-scratch oracle predicate: hash-set intersection,
// |A∩B| >= θ·|A∪B| in float64 — the definition both strsim.JaccardSimAtLeast
// and the generator must reproduce. Two empty sets are similar at 1.
func naiveAtLeast(a, b []uint32, theta float64) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	set := make(map[uint32]bool, len(a))
	for _, t := range a {
		set[t] = true
	}
	inter := 0
	for _, t := range b {
		if set[t] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) >= theta*float64(union)
}

func naivePairs(sigs [][]uint32, theta float64, minArrival int) []pairdist.IDPair {
	var out []pairdist.IDPair
	for b := 1; b < len(sigs); b++ {
		if minArrival > 0 && b < minArrival {
			continue
		}
		for a := 0; a < b; a++ {
			if naiveAtLeast(sigs[a], sigs[b], theta) {
				out = append(out, pairdist.IDPair{A: a, B: b})
			}
		}
	}
	return out
}

// randomCorpus draws n signature sets with Zipf-skewed token frequencies —
// a few hot tokens shared by many records (the regime prefix filtering must
// survive) plus a long rare tail — including some empty and some duplicated
// signatures.
func randomCorpus(rng *rand.Rand, n int, vocab uint64) [][]uint32 {
	zipf := rand.NewZipf(rng, 1.3, 1.2, vocab)
	sigs := make([][]uint32, n)
	for i := range sigs {
		switch rng.Intn(10) {
		case 0: // empty signature
		case 1: // exact duplicate of an earlier record
			if i > 0 {
				sigs[i] = append([]uint32(nil), sigs[rng.Intn(i)]...)
				continue
			}
			fallthrough
		default:
			size := 1 + rng.Intn(25)
			set := make(map[uint32]bool, size)
			for len(set) < size {
				set[uint32(zipf.Uint64())] = true
			}
			s := make([]uint32, 0, size)
			for t := range set {
				s = append(s, t)
			}
			// Sorted, deduplicated — the intern.SortedSet contract.
			for x := 1; x < len(s); x++ {
				for y := x; y > 0 && s[y-1] > s[y]; y-- {
					s[y-1], s[y] = s[y], s[y-1]
				}
			}
			sigs[i] = s
		}
	}
	return sigs
}

func testEngine(failureRate float64) *rdd.Context {
	return rdd.NewContext(cluster.New(cluster.Config{
		Executors: 2, CoresPerExecutor: 2,
		FailureRate: failureRate, MaxTaskRetries: 80, Seed: 99,
	}))
}

// canonPairs sorts a copy into (A, B) order — the order Pairs promises —
// so oracles that enumerate in a different order compare as sets.
func canonPairs(in []pairdist.IDPair) []pairdist.IDPair {
	if len(in) == 0 {
		return nil
	}
	out := append([]pairdist.IDPair(nil), in...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// TestDifferentialPrefixRecall is the CI-smoke recall gate (run uncached):
// randomized corpora at several θ including the paper's 0.5, all-pairs and
// incremental restriction, multiple partition counts, clean and
// fault-injected.
func TestDifferentialPrefixRecall(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(80)
		// Tiny 400-token vocabulary: adversarially collision-heavy, the
		// worst case for prefix pruning but the best stress for recall.
		sigs := randomCorpus(rng, n, 400)
		for _, theta := range []float64{0.3, 0.5, 0.8, 1.0} {
			for _, minArrival := range []int{0, n / 2} {
				want := canonPairs(naivePairs(sigs, theta, minArrival))
				brute := canonPairs(BruteForcePairs(sigs, theta, minArrival))
				if !reflect.DeepEqual(brute, want) {
					t.Fatalf("seed%d θ=%v min=%d: BruteForcePairs diverges from naive oracle: %d vs %d pairs",
						seed, theta, minArrival, len(brute), len(want))
				}
				for _, parts := range []int{1, 3, 7} {
					for _, failureRate := range []float64{0, 0.3} {
						name := fmt.Sprintf("seed%d/θ=%v/min=%d/parts%d/fail%v",
							seed, theta, minArrival, parts, failureRate)
						got, st, err := Pairs(testEngine(failureRate), sigs, Params{
							Theta: theta, Partitions: parts, MinArrival: minArrival,
						})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !sort.SliceIsSorted(got, func(i, j int) bool {
							if got[i].A != got[j].A {
								return got[i].A < got[j].A
							}
							return got[i].B < got[j].B
						}) {
							t.Errorf("%s: Pairs output not in (A, B) order", name)
						}
						if !reflect.DeepEqual(canonPairs(got), want) {
							t.Errorf("%s: emitted %d pairs, oracle %d\n got: %v\nwant: %v",
								name, len(got), len(want), got, want)
						}
						if st.Emitted != int64(len(got)) {
							t.Errorf("%s: Stats.Emitted = %d, len = %d", name, st.Emitted, len(got))
						}
					}
				}
			}
		}
	}
}

// TestPrefixFilterPrunes asserts the point of the subsystem: on a corpus
// with realistic frequency skew, the number of verifications is a small
// fraction of the quadratic pair space.
func TestPrefixFilterPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Realistic vocabulary size (a drug/ADR/description token space runs to
	// tens of thousands of distinct terms), unlike the adversarial 400-token
	// recall corpus where near-universal collision is the point.
	sigs := randomCorpus(rng, 400, 50000)
	_, st, err := Pairs(testEngine(0), sigs, Params{Theta: 0.5, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	all := TotalPairs(len(sigs), 0)
	if st.Verified*10 > all {
		t.Errorf("verified %d of %d pairs; prefix filter pruned less than 10x", st.Verified, all)
	}
	if st.Verified == 0 {
		t.Error("no verifications; test would be vacuous")
	}
}
