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
	"adrdedup/internal/cluster"
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
// which is what lets the Jaccard kernel (Scorer) count common tokens by table
// lookup, with no allocation. ID sets from different interners are not
// comparable: all features compared against each other must come from one
// shared interner (the Detector keeps one for its lifetime).
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
// reports, every component in [0, 1], by a merge scan of each token-set
// pair. It is the reference the product kernel, Scorer, must equal bit for
// bit.
func Distance(a, b Features) []float64 {
	v := make([]float64, Dims)
	mergeDistanceInto(v, &a, &b)
	return v
}

// mergeDistanceInto is Distance into dst, which must have at least Dims
// elements, without allocating.
func mergeDistanceInto(dst []float64, a, b *Features) {
	exactFields(dst, a, b)
	dst[FieldDrugName] = strsim.JaccardDistanceSortedIDs(a.DrugIDs, b.DrugIDs)
	dst[FieldADRName] = strsim.JaccardDistanceSortedIDs(a.ADRIDs, b.ADRIDs)
	dst[FieldDescription] = strsim.JaccardDistanceSortedIDs(a.DescIDs, b.DescIDs)
}

// exactFields sets the four exact-match components of dst.
func exactFields(dst []float64, a, b *Features) {
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
}

// Scorer is the distance kernel: a one-vs-many form of Distance for a task
// that scores many pairs sharing one end. It marks one record's drug, ADR
// and description IDs as bits 1, 2 and 4 of a byte per ID, and counts each
// partner's common tokens by looking its IDs up, where Distance merges three
// set pairs per pair. The marks stay while the marked record does, so a task
// whose pairs come grouped by one end (a probe task hands its pairs grouped
// by prober) marks each record once.
//
// A record is marked when a second pair in a row shares it. A pair that
// shares no end with the one before is merge-scanned instead: marking and
// unmarking cost a write per ID, which a single pair does not pay back, so
// pairs in random order (a training sample) cost what Distance costs.
//
// The mark table is the worker's zeroed byte table
// (cluster.WorkerScratch.ZeroedBytes), so a Scorer allocates nothing once
// the table has grown to the vocabulary, and Release must run before the
// task returns, to hand the table back all zero.
type Scorer struct {
	ws    *cluster.WorkerScratch
	marks []byte
	// marked is the record whose IDs are marked, nil when none is. Its
	// token sets must not change while it is marked.
	marked *Features
	// lastA and lastB are the ends of the previous pair.
	lastA, lastB *Features
}

// NewScorer returns a Scorer marking in ws's zeroed byte table.
func NewScorer(ws *cluster.WorkerScratch) Scorer { return Scorer{ws: ws} }

// DistanceInto computes the distance vector of a and b into dst, which must
// have at least Dims elements; it equals Distance(*a, *b) bit for bit. The
// distance is symmetric, so the marked end may be either one.
func (s *Scorer) DistanceInto(dst []float64, a, b *Features) {
	lastA, lastB := s.lastA, s.lastB
	s.lastA, s.lastB = a, b
	switch {
	case a == s.marked:
		a, b = b, a
	case b == s.marked:
	case b == lastA || b == lastB:
		s.mark(b)
	case a == lastA || a == lastB:
		s.mark(a)
		a, b = b, a
	default:
		mergeDistanceInto(dst, a, b)
		return
	}
	exactFields(dst, a, b)
	dst[FieldDrugName] = jaccardDistance(s.hits(a.DrugIDs, 0), len(a.DrugIDs), len(b.DrugIDs))
	dst[FieldADRName] = jaccardDistance(s.hits(a.ADRIDs, 1), len(a.ADRIDs), len(b.ADRIDs))
	dst[FieldDescription] = jaccardDistance(s.hits(a.DescIDs, 2), len(a.DescIDs), len(b.DescIDs))
}

// mark unmarks the marked record, if any, and marks b, growing the table to
// b's largest ID.
func (s *Scorer) mark(b *Features) {
	s.Release()
	top := 0
	for _, ids := range [...][]uint32{b.DrugIDs, b.ADRIDs, b.DescIDs} {
		if len(ids) > 0 {
			top = max(top, int(ids[len(ids)-1]))
		}
	}
	if top >= len(s.marks) {
		s.marks = s.ws.ZeroedBytes(top + 1)
	}
	for _, id := range b.DrugIDs {
		s.marks[id] |= 1
	}
	for _, id := range b.ADRIDs {
		s.marks[id] |= 2
	}
	for _, id := range b.DescIDs {
		s.marks[id] |= 4
	}
	s.marked = b
}

// Release unmarks the marked record, leaving the table all zero.
func (s *Scorer) Release() {
	if s.marked == nil {
		return
	}
	for _, ids := range [...][]uint32{s.marked.DrugIDs, s.marked.ADRIDs, s.marked.DescIDs} {
		for _, id := range ids {
			s.marks[id] = 0
		}
	}
	s.marked = nil
}

// hits counts the IDs of the sorted set ids whose mark has bit 1<<field:
// the tokens they share with the marked record's set of that field. An ID
// past the table is past every marked ID, and so are the rest.
func (s *Scorer) hits(ids []uint32, field uint) int {
	marks, n := s.marks, 0
	for _, id := range ids {
		if int(id) >= len(marks) {
			break
		}
		n += int(marks[id] >> field & 1)
	}
	return n
}

// jaccardDistance is strsim.JaccardDistanceSortedIDs of two sets of la and
// lb IDs with inter in common, by the same float expression.
func jaccardDistance(inter, la, lb int) float64 {
	if la == 0 && lb == 0 {
		return 0 // two empty sets are alike
	}
	if la == 0 || lb == 0 {
		return 1
	}
	return 1 - float64(inter)/float64(la+lb-inter)
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
	vectors := rdd.MapPartitionsTC(src, func(tc *cluster.TaskContext, _ int, in []IDPair) ([]PairRecord, error) {
		// One flat arena backs every distance vector of the partition:
		// Dims*len(in) floats in a single allocation, re-sliced per pair
		// (full-capacity slices, so an append on one Vec can never bleed
		// into its neighbor). Nothing downstream mutates Vec contents, so
		// sharing one backing array is safe; it does keep the whole
		// partition's arena alive while any one Vec is referenced.
		out := make([]PairRecord, len(in))
		arena := make([]float64, Dims*len(in))
		s := NewScorer(tc.Scratch())
		defer s.Release()
		for i, p := range in {
			vec := arena[i*Dims : (i+1)*Dims : (i+1)*Dims]
			s.DistanceInto(vec, &feats[p.A], &feats[p.B])
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
