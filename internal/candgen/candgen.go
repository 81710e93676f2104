// Package candgen generates candidate report pairs for duplicate detection
// without enumerating the quadratic all-pairs space. Reports are reduced to
// signature sets of interned token IDs, re-ordered by ascending token
// frequency, and only each set's length-derived *prefix* is entered into an
// inverted index: two sets whose Jaccard similarity reaches the threshold θ
// must share a token inside both prefixes, so scanning prefix posting lists
// finds every qualifying pair. Candidates that survive the length bound, the
// PPJoin positional filter and a hashed-bitmap overlap bound are verified
// exactly, making the emitted pair set identical to the brute-force ≥θ set.
//
// Index is the one generator: the Detector keeps it across Detect calls and
// probes each arriving batch against it (Eq. 3) as an engine stage, so
// candidate generation runs with traces, speculative execution, and chaos
// injection like every other stage. Pairs is the one-shot form over a whole
// corpus: a fresh Index, one Append, one Probe.
package candgen

import (
	"cmp"
	"fmt"

	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
	"adrdedup/internal/strsim"
)

// Params configures a generation run.
type Params struct {
	// Theta is the Jaccard similarity threshold over signature sets; a
	// pair is emitted iff JaccardSimAtLeast(sig(a), sig(b), Theta). Must
	// be in (0, 1].
	Theta float64
	// Partitions is the probe-stage task count. 0 uses the engine's default
	// parallelism.
	Partitions int
	// MinArrival restricts output to Eq. 3's incremental shape: only
	// pairs with max(A, B) >= MinArrival — at least one end in the new
	// batch — are generated. 0 generates all pairs.
	MinArrival int
}

func (p Params) validate() error {
	if p.Theta <= 0 || p.Theta > 1 {
		return fmt.Errorf("candgen: theta %v outside (0, 1]", p.Theta)
	}
	if p.MinArrival < 0 {
		return fmt.Errorf("candgen: negative MinArrival %d", p.MinArrival)
	}
	return nil
}

// Stats reports how much work generation did — the numbers behind the
// candidate-reduction claims.
type Stats struct {
	// Records is the input size; EmptyRecords of them had empty
	// signatures (paired among themselves at similarity 1).
	Records, EmptyRecords int
	// IndexEntries counts the prefix postings entered into the index since
	// the previous probe, a rebuild's included.
	IndexEntries int64
	// Scanned counts the posting-list entries the probe read: those inside
	// the length bound and inside the prober position's window — in the
	// lists, and of the partner sizes, where the pair's first common token
	// can sit at that position (the mid lists, the tail lists for partners
	// longer than the prober, and sizes la with need(la, lr) <= lr - i at
	// position i); Verified counts full merge-scan verifications (each
	// candidate pair exactly once); Emitted counts pairs passing
	// verification.
	Scanned, Verified, Emitted int64
	// BitmapPruned counts the candidates ruled out with the hashed-bitmap
	// overlap bound instead of verifying them.
	BitmapPruned int64
}

// TotalPairs is the size of the search space the generator replaces: all
// unordered pairs over n records, restricted to pairs with max end >=
// minArrival when minArrival > 0.
func TotalPairs(n, minArrival int) int64 {
	all := int64(n) * int64(n-1) / 2
	if minArrival <= 0 || minArrival >= n {
		if minArrival >= n {
			return 0
		}
		return all
	}
	old := int64(minArrival)
	return all - old*(old-1)/2
}

// Signatures extracts the signature set of every feature (the sorted union
// of its interned token-ID sets). Signature comparison is only meaningful
// inside one interner ID space, so the features must share an interner.
//
// It cannot fail; the error result is always nil. It survives only because
// the frozen bench module's bench/trace.go calls Signatures with this shape
// (its one caller that checks the error); the next [benchmark] PR drops the
// error and that check together.
func Signatures(feats []pairdist.Features) ([][]uint32, error) {
	sigs := make([][]uint32, len(feats))
	for i := range feats {
		sigs[i] = feats[i].SignatureIDs()
	}
	return sigs, nil
}

// pairCmp orders IDPairs by (A, B).
func pairCmp(a, b pairdist.IDPair) int {
	if c := cmp.Compare(a.A, b.A); c != 0 {
		return c
	}
	return cmp.Compare(a.B, b.B)
}

// Pairs generates every unordered record pair whose signature Jaccard
// similarity reaches p.Theta, as an engine stage on ctx. The result is
// sorted by (A, B) with A < B and is exactly the brute-force ≥θ set —
// prefix filtering prunes candidates, never answers. See Params.MinArrival
// for the incremental restriction.
//
// It indexes the whole corpus in one Append, whose first call is a full
// frequency-ranked build, and probes from MinArrival.
func Pairs(ctx *rdd.Context, sigs [][]uint32, p Params) ([]pairdist.IDPair, Stats, error) {
	if err := p.validate(); err != nil {
		return nil, Stats{}, err
	}
	if p.MinArrival >= len(sigs) {
		return nil, Stats{Records: len(sigs)}, nil
	}
	ix, err := NewIndex(p.Theta)
	if err != nil {
		return nil, Stats{}, err
	}
	ix.Append(sigs)
	return ix.Probe(ctx, p.MinArrival, p.Partitions)
}

// BruteForcePairs is the quadratic recall oracle: every unordered pair
// checked with the same verification predicate the generator uses. It
// defines the set Pairs and Index.Probe must reproduce.
func BruteForcePairs(sigs [][]uint32, theta float64, minArrival int) []pairdist.IDPair {
	var out []pairdist.IDPair
	for b := 1; b < len(sigs); b++ {
		if minArrival > 0 && b < minArrival {
			continue
		}
		for a := 0; a < b; a++ {
			if strsim.JaccardSimAtLeast(sigs[a], sigs[b], theta) {
				out = append(out, pairdist.IDPair{A: a, B: b})
			}
		}
	}
	return out
}
