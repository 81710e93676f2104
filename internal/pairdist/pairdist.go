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
	"adrdedup/internal/vecmath"
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

// FieldNames labels the vector dimensions, in order.
var FieldNames = [Dims]string{
	"calculated age", "sex", "residential state", "onset date",
	"generic name description", "MedDRA PT name", "report description",
}

// Features is the preprocessed form of one report: everything the distance
// function needs, with the NLP pipeline already applied. Extracting features
// once per report keeps the pairwise stage O(1) string work per comparison.
//
// When built through ExtractWith/ExtractAllWith, the three token sets are
// additionally interned into sorted, deduplicated uint32 ID sets (DrugIDs,
// ADRIDs, DescIDs), which is what lets the Jaccard kernel run as an
// allocation-free merge scan. ID sets from different interners are not
// comparable: all features compared against each other must come from one
// shared interner (the Detector keeps one for its lifetime). DistanceWith
// falls back to the string kernel whenever either side lacks IDs.
type Features struct {
	Age        int
	Sex        string
	State      string
	OnsetDate  string
	DrugSet    []string
	ADRSet     []string
	DescTokens []string

	// DrugIDs, ADRIDs, DescIDs are the interned forms of the three token
	// sets: sorted, deduplicated IDs from the interner passed to
	// ExtractWith. Valid only when Interned is true.
	DrugIDs []uint32
	ADRIDs  []uint32
	DescIDs []uint32
	// Interned records that the ID sets were built (they may legitimately
	// be empty, so presence cannot be inferred from non-nil slices).
	Interned bool
}

// Extract preprocesses one report without interning. Features built this
// way always take the legacy string-set kernel; it is kept as the
// differential oracle for the interned path.
func Extract(r adr.Report) Features {
	return Features{
		Age:        r.CalculatedAge,
		Sex:        r.Sex,
		State:      r.ResidentialState,
		OnsetDate:  r.OnsetDate,
		DrugSet:    adr.SplitMulti(r.GenericNameDesc),
		ADRSet:     adr.SplitMulti(r.MedDRAPTName),
		DescTokens: text.Process(r.ReportDescription),
	}
}

// ExtractWith preprocesses one report and interns its token sets through
// it, enabling the merge-scan Jaccard kernel. The interner may be shared by
// concurrent extract tasks.
func ExtractWith(it *intern.Interner, r adr.Report) Features {
	f := Extract(r)
	f.intern(it)
	return f
}

// intern builds the three ID sets from the string sets.
func (f *Features) intern(it *intern.Interner) {
	f.DrugIDs = it.SortedSet(f.DrugSet)
	f.ADRIDs = it.SortedSet(f.ADRSet)
	f.DescIDs = it.SortedSet(f.DescTokens)
	f.Interned = true
}

// SignatureIDs returns the report's signature set: the sorted union of the
// three interned token-ID sets (drugs, ADRs, description). All three share
// one interner ID space, so the union is a well-defined token set; it is
// what the prefix-filtered candidate generator (internal/candgen) indexes.
// Valid only for interned features (ok is false otherwise).
func (f Features) SignatureIDs() (ids []uint32, ok bool) {
	if !f.Interned {
		return nil, false
	}
	return strsim.UnionSortedIDs(f.DrugIDs, f.ADRIDs, f.DescIDs), true
}

// TextMetric selects the token-set distance used for string and free-text
// fields. The paper uses Jaccard (Eq. 4); cosine is provided for the metric
// ablation (both are among the §1 candidates).
type TextMetric int

const (
	// JaccardMetric is 1 - |A∩B|/|A∪B| (the paper's choice).
	JaccardMetric TextMetric = iota
	// CosineMetric is 1 - cosine similarity over token counts.
	CosineMetric
)

func (m TextMetric) String() string {
	if m == CosineMetric {
		return "cosine"
	}
	return "jaccard"
}

func (m TextMetric) distance(a, b []string) float64 {
	if m == CosineMetric {
		return 1 - strsim.Cosine(a, b)
	}
	return strsim.JaccardDistance(a, b)
}

// Distance computes the §4.2 distance vector between two preprocessed
// reports using the paper's Jaccard metric. Every component lies in [0, 1].
func Distance(a, b Features) []float64 {
	return DistanceWith(a, b, JaccardMetric)
}

// DistanceWith computes the distance vector under the chosen token metric.
func DistanceWith(a, b Features, m TextMetric) []float64 {
	v := make([]float64, Dims)
	DistanceInto(v, &a, &b, m)
	return v
}

// DistanceInto computes the distance vector into dst (which must have at
// least Dims elements) and performs no allocation. When both features are
// interned and the metric is Jaccard, the three token-set distances run as
// merge scans over the sorted ID sets — bit-identical to the string kernel,
// since both reduce to float64(|A∩B|)/float64(|A∪B|) over the same counts.
// Cosine needs token multiplicities, which the deduplicated ID sets drop,
// so it always takes the string path. The features are read through
// pointers: a Features value is about 200 bytes, and copying two per pair
// was a tenth of the vectorize loop.
func DistanceInto(dst []float64, a, b *Features, m TextMetric) {
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
	if m == JaccardMetric && a.Interned && b.Interned {
		dst[FieldDrugName] = strsim.JaccardDistanceSortedIDs(a.DrugIDs, b.DrugIDs)
		dst[FieldADRName] = strsim.JaccardDistanceSortedIDs(a.ADRIDs, b.ADRIDs)
		dst[FieldDescription] = strsim.JaccardDistanceSortedIDs(a.DescIDs, b.DescIDs)
		return
	}
	dst[FieldDrugName] = m.distance(a.DrugSet, b.DrugSet)
	dst[FieldADRName] = m.distance(a.ADRSet, b.ADRSet)
	dst[FieldDescription] = m.distance(a.DescTokens, b.DescTokens)
}

// VectorDist is the distance between two report pairs: the Euclidean
// distance between their distance vectors (§4.2).
func VectorDist(a, b []float64) float64 {
	return vecmath.Dist(a, b)
}

// MaxVectorDist bounds VectorDist for Dims-dimensional unit-cube vectors;
// useful for normalizing scores and thresholds.
var MaxVectorDist = vecmath.Dist(make([]float64, Dims), onesVec())

func onesVec() []float64 {
	v := make([]float64, Dims)
	for i := range v {
		v[i] = 1
	}
	return v
}

// ExtractAll preprocesses reports in parallel on the cluster (the text
// pipeline dominates; this is the first stage of the paper's workflow in
// Figure 1). Features come back in the order of reports. They are not
// interned — callers that compare features across multiple extraction calls
// should use ExtractAllWith with one long-lived interner instead.
func ExtractAll(ctx *rdd.Context, reports []adr.Report, partitions int) ([]Features, error) {
	src := rdd.Parallelize(ctx, reports, partitions).SetName("reports").WithBytesPerRecord(600)
	return rdd.Map(src, Extract).SetName("features").Collect()
}

// ExtractAllWith is ExtractAll with token interning through it, enabling
// the merge-scan Jaccard kernel downstream. The parallel tasks only tokenise;
// IDs are assigned afterwards in one driver-side pass over the reports in
// order, so an interner fed the same reports in the same order hands out the
// same IDs on every run and at every core count — ID order reaches candgen's
// frequency-rank tie-break and through it the Scanned/Verified counters. it
// must be the same interner for every feature set that will be compared
// together.
func ExtractAllWith(ctx *rdd.Context, it *intern.Interner, reports []adr.Report, partitions int) ([]Features, error) {
	feats, err := ExtractAll(ctx, reports, partitions)
	if err != nil {
		return nil, err
	}
	for i := range feats {
		feats[i].intern(it)
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
			DistanceInto(vec, &feats[p.A], &feats[p.B], JaccardMetric)
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
