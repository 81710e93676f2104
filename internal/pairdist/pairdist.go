// Package pairdist implements the report distance calculation of §4.2: the
// seven selected TGA fields are compared field-by-field to produce a
// distance vector per report pair, and report pairs are compared to each
// other by the Euclidean distance between their distance vectors.
//
// Field rules (§4.2):
//   - calculated age (numerical): distance 0 when equal, else 1;
//   - sex, residential state, onset date (categorical): 0 when equal, else 1;
//   - drug name, ADR name (string): Jaccard distance over the comma-split
//     value sets (Eq. 4);
//   - report description (free text): Jaccard distance over the tokenized,
//     stop-worded, stemmed token set.
package pairdist

import (
	"adrdedup/internal/adr"
	"adrdedup/internal/intern"
	"adrdedup/internal/rdd"
	"adrdedup/internal/strsim"
	"adrdedup/internal/text"
)

// Dims is the width of a pair distance vector: one entry per selected field.
const Dims = 7

// Field indices within a distance vector.
const (
	FieldAge = iota
	FieldSex
	FieldState
	FieldOnsetDate
	FieldDrugName
	FieldADRName
	FieldDescription
)

// Features is the preprocessed form of one report: everything the distance
// function needs, with the NLP pipeline already applied. Extracting features
// once per report keeps the pairwise stage O(1) string work per comparison.
//
// The three token sets are interned into sorted, deduplicated uint32 ID sets,
// which is what lets the Jaccard kernel run as an allocation-free merge scan.
// ID sets from different interners are not comparable: all features compared
// against each other must come from one shared interner (the Detector keeps
// one for its lifetime).
type Features struct {
	Age       int
	Sex       string
	State     string
	OnsetDate string

	// DrugIDs, ADRIDs, DescIDs are the interned drug, reaction and
	// description token sets: sorted, deduplicated IDs.
	DrugIDs []uint32
	ADRIDs  []uint32
	DescIDs []uint32
}

// row is one report tokenised but not yet interned: what the parallel
// extract tasks produce. Its fields are exported because spilled rows are
// gob-encoded.
type row struct {
	Age                 int
	Sex, State, Onset   string
	Drugs, ADRs, Tokens []string
}

func tokenise(r adr.Report) row {
	return row{
		Age:    r.CalculatedAge,
		Sex:    r.Sex,
		State:  r.ResidentialState,
		Onset:  r.OnsetDate,
		Drugs:  adr.SplitMulti(r.GenericNameDesc),
		ADRs:   adr.SplitMulti(r.MedDRAPTName),
		Tokens: text.Process(r.ReportDescription),
	}
}

// intern builds the features, interning drugs, reactions and description
// tokens in that order.
func (w row) intern(it *intern.Interner) Features {
	return Features{
		Age:       w.Age,
		Sex:       w.Sex,
		State:     w.State,
		OnsetDate: w.Onset,
		DrugIDs:   it.SortedSet(w.Drugs),
		ADRIDs:    it.SortedSet(w.ADRs),
		DescIDs:   it.SortedSet(w.Tokens),
	}
}

// SignatureIDs returns the report's signature set: the sorted union of the
// three interned token-ID sets (drugs, ADRs, description). All three share
// one interner ID space, so the union is a well-defined token set; it is
// what the prefix-filtered candidate generator (internal/candgen) indexes.
func (f Features) SignatureIDs() []uint32 {
	return strsim.UnionSortedIDs(f.DrugIDs, f.ADRIDs, f.DescIDs)
}

// Distance computes the §4.2 distance vector between two preprocessed
// reports. Every component lies in [0, 1].
func Distance(a, b Features) []float64 {
	v := make([]float64, Dims)
	DistanceInto(v, &a, &b)
	return v
}

// DistanceInto computes the distance vector into dst (which must have at
// least Dims elements) and performs no allocation. The three token-set
// distances are merge scans over the sorted ID sets. The features are read
// through pointers: copying two Features values per pair was a tenth of the
// vectorize loop.
func DistanceInto(dst []float64, a, b *Features) {
	_ = dst[Dims-1]
	dst[FieldAge] = 0
	if a.Age != b.Age {
		dst[FieldAge] = 1
	}
	dst[FieldSex] = 0
	if a.Sex != b.Sex {
		dst[FieldSex] = 1
	}
	dst[FieldState] = 0
	if a.State != b.State {
		dst[FieldState] = 1
	}
	dst[FieldOnsetDate] = 0
	if a.OnsetDate != b.OnsetDate {
		dst[FieldOnsetDate] = 1
	}
	dst[FieldDrugName] = strsim.JaccardDistanceSortedIDs(a.DrugIDs, b.DrugIDs)
	dst[FieldADRName] = strsim.JaccardDistanceSortedIDs(a.ADRIDs, b.ADRIDs)
	dst[FieldDescription] = strsim.JaccardDistanceSortedIDs(a.DescIDs, b.DescIDs)
}

// ExtractAllWith preprocesses reports in parallel on the cluster (the text
// pipeline dominates; this is the first stage of the paper's workflow in
// Figure 1) and interns their token sets through it. Features come back in
// the order of reports. The parallel tasks only tokenise; IDs are assigned
// afterwards in one driver-side pass over the reports in order, so an
// interner fed the same reports in the same order hands out the same IDs on
// every run and at every core count — ID order reaches candgen's
// frequency-rank tie-break and through it the Scanned/Verified counters. it
// must be the same interner for every feature set that will be compared
// together.
func ExtractAllWith(ctx *rdd.Context, it *intern.Interner, reports []adr.Report, partitions int) ([]Features, error) {
	src := rdd.Parallelize(ctx, reports, partitions).SetName("reports").WithBytesPerRecord(600)
	rows, err := rdd.Map(src, tokenise).SetName("features").Collect()
	if err != nil {
		return nil, err
	}
	feats := make([]Features, len(rows))
	for i, w := range rows {
		feats[i] = w.intern(it)
	}
	return feats, nil
}

// PairRecord is one report pair with its computed distance vector and, when
// known, its label (+1 duplicate, -1 non-duplicate, 0 unknown).
type PairRecord struct {
	A, B  int
	Vec   []float64
	Label int
}

// IDPair identifies a report pair to vectorize, optionally labelled.
type IDPair struct {
	A, B  int
	Label int
}

// ComputeVectors computes distance vectors for the given report pairs in
// parallel (the pairwise distance computing module of Figure 1; timed
// separately in the paper's Fig. 10(b)). The features slice is broadcast to
// the executors.
func ComputeVectors(ctx *rdd.Context, feats []Features, pairs []IDPair, partitions int) ([]PairRecord, error) {
	// Broadcasting features to every executor: charge ~300 bytes each.
	ctx.Cluster().Broadcast(int64(len(feats)) * 300)
	src := rdd.Parallelize(ctx, pairs, partitions).SetName("pairIDs").WithBytesPerRecord(24)
	vectors := rdd.MapPartitions(src, func(in []IDPair) ([]PairRecord, error) {
		// One flat arena backs every distance vector of the partition:
		// Dims*len(in) floats in a single allocation, re-sliced per pair
		// (full-capacity slices, so an append on one Vec can never bleed
		// into its neighbor). Nothing downstream mutates Vec contents, so
		// sharing one backing array is safe; it does keep the whole
		// partition's arena alive while any one Vec is referenced.
		out := make([]PairRecord, len(in))
		arena := make([]float64, Dims*len(in))
		for i, p := range in {
			vec := arena[i*Dims : (i+1)*Dims : (i+1)*Dims]
			DistanceInto(vec, &feats[p.A], &feats[p.B])
			out[i] = PairRecord{A: p.A, B: p.B, Label: p.Label, Vec: vec}
		}
		return out, nil
	}).SetName("pairVectors").WithBytesPerRecord(16 + 8*Dims)
	recs, err := vectors.Collect()
	if err != nil {
		return nil, err
	}
	// Charge the comparison count once, driver-side.
	ctx.Cluster().Metrics().Comparisons.Add(int64(len(pairs)))
	return recs, nil
}
