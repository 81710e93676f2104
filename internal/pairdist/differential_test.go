package pairdist

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"adrdedup/internal/adr"
	"adrdedup/internal/adrgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/intern"
	"adrdedup/internal/rdd"
	"adrdedup/internal/strsim"
	"adrdedup/internal/text"
)

// referenceDistance is the §4.2 distance vector of two reports computed from
// their strings: equality on the four exact-match fields, and
// strsim.JaccardDistance over the split drug and reaction lists and over the
// processed description tokens. The interned kernel must equal it bit for
// bit.
func referenceDistance(a, b adr.Report) []float64 {
	differ := func(x bool) float64 {
		if x {
			return 1
		}
		return 0
	}
	return []float64{
		FieldAge:       differ(a.CalculatedAge != b.CalculatedAge),
		FieldSex:       differ(a.Sex != b.Sex),
		FieldState:     differ(a.ResidentialState != b.ResidentialState),
		FieldOnsetDate: differ(a.OnsetDate != b.OnsetDate),
		FieldDrugName:  strsim.JaccardDistance(adr.SplitMulti(a.GenericNameDesc), adr.SplitMulti(b.GenericNameDesc)),
		FieldADRName:   strsim.JaccardDistance(adr.SplitMulti(a.MedDRAPTName), adr.SplitMulti(b.MedDRAPTName)),
		FieldDescription: strsim.JaccardDistance(
			text.Process(a.ReportDescription), text.Process(b.ReportDescription)),
	}
}

// assertVecsBitIdentical fails unless the two vectors are equal bit for bit
// (no tolerance).
func assertVecsBitIdentical(t testing.TB, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", tag, len(got), len(want))
	}
	for d := range got {
		if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
			t.Fatalf("%s dim %d (%s): kernel %v != reference %v", tag, d, FieldNames[d], got[d], want[d])
		}
	}
}

// TestDistanceMatchesReferenceOnGeneratedCorpora pins the interned kernels,
// the Scorer and Distance's merge scan, to the string reference over
// randomized generated report corpora: every pair's distance vector must be
// bit-identical. Random pairs reach the Scorer one at a time, so it
// merge-scans nearly all of them.
func TestDistanceMatchesReferenceOnGeneratedCorpora(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := adrgen.Generate(adrgen.Config{
				NumReports: 150, DuplicatePairs: 15, NumDrugs: 40, NumADRs: 60, Seed: seed,
			})
			it := intern.New()
			feats := make([]Features, len(c.Reports))
			for i, r := range c.Reports {
				feats[i] = ExtractWith(it, r)
			}
			rng := rand.New(rand.NewSource(seed * 31))
			ws := &cluster.WorkerScratch{}
			s := NewScorer(ws)
			var got [Dims]float64
			for trial := 0; trial < 2000; trial++ {
				a, b := rng.Intn(len(feats)), rng.Intn(len(feats))
				want := referenceDistance(c.Reports[a], c.Reports[b])
				s.DistanceInto(got[:], &feats[a], &feats[b])
				assertVecsBitIdentical(t, fmt.Sprintf("Scorer pair (%d,%d)", a, b), got[:], want)
				assertVecsBitIdentical(t, fmt.Sprintf("Distance pair (%d,%d)", a, b), Distance(feats[a], feats[b]), want)
			}
			s.Release()
			assertMarksZero(t, ws)
		})
	}
}

// edgeCaseReports are the boundary report shapes: empty fields, duplicate
// tokens in multi-valued fields, all-stopword descriptions, and unicode
// tokens.
var edgeCaseReports = []struct {
	name string
	r    adr.Report
}{
	{"empty", adr.Report{}},
	{"aspirin", adr.Report{GenericNameDesc: "Aspirin", MedDRAPTName: "Headache", ReportDescription: "severe headache after aspirin"}},
	{"repeated-drugs", adr.Report{GenericNameDesc: "Aspirin,Aspirin,Aspirin"}},
	{"repeated-reactions", adr.Report{MedDRAPTName: "Nausea,Vomiting,Nausea"}},
	{"all-stopwords", adr.Report{ReportDescription: "the of and to"}},
	{"unicode", adr.Report{ReportDescription: "头痛 悪心 ñandú café"}},
	{"cjk-mixed", adr.Report{GenericNameDesc: "头痛药", MedDRAPTName: "头痛", ReportDescription: "头痛 headache 头痛"}},
	{"categorical-only", adr.Report{CalculatedAge: 30, Sex: "F", ResidentialState: "NSW", OnsetDate: "01/01/2020"}},
	{"full", adr.Report{CalculatedAge: 30, Sex: "F", ResidentialState: "VIC", OnsetDate: "01/01/2020",
		GenericNameDesc: "Paracetamol,Codeine", MedDRAPTName: "Dizziness",
		ReportDescription: "dizziness and mild nausea reported after paracetamol with codeine"}},
}

// TestDistanceMatchesReferenceOnEdgeCaseReports compares each boundary shape
// against every other, through one interner, by Distance and by a Scorer
// that sees the pairs grouped by their second shape, as it would see a
// prober's.
func TestDistanceMatchesReferenceOnEdgeCaseReports(t *testing.T) {
	it := intern.New()
	feats := make([]Features, len(edgeCaseReports))
	for i, e := range edgeCaseReports {
		feats[i] = ExtractWith(it, e.r)
	}
	ws := &cluster.WorkerScratch{}
	s := NewScorer(ws)
	var got [Dims]float64
	for b, eb := range edgeCaseReports {
		t.Run(eb.name, func(t *testing.T) {
			for a, ea := range edgeCaseReports {
				want := referenceDistance(ea.r, eb.r)
				assertVecsBitIdentical(t, "Distance from "+ea.name, Distance(feats[a], feats[b]), want)
				s.DistanceInto(got[:], &feats[a], &feats[b])
				assertVecsBitIdentical(t, "Scorer from "+ea.name, got[:], want)
			}
		})
	}
	s.Release()
	assertMarksZero(t, ws)
}

// assertMarksZero fails unless ws's zeroed byte table is all zero to its
// capacity, as a Scorer must leave it.
func assertMarksZero(t testing.TB, ws *cluster.WorkerScratch) {
	t.Helper()
	marks := ws.ZeroedBytes(0)
	for id, m := range marks[:cap(marks)] {
		if m != 0 {
			t.Fatalf("mark table left %#x at ID %d", m, id)
		}
	}
}

// TestDistanceMatchesReferenceScorerShapes pins the Scorer to Distance bit
// for bit on hand-built features, in the sequences that exercise its marks:
// a record marked on its second pair in a row, by either end, and kept
// while it repeats; pairs sharing no end merge-scanned between marks; empty
// sets on either side, marked or not; one token in two or three fields of
// the same report; a record re-marked after another and back; and IDs
// above the table the previous marks grew, on either side of the pair.
func TestDistanceMatchesReferenceScorerShapes(t *testing.T) {
	f := func(drugs, adrs, desc []uint32) Features {
		return Features{Age: len(desc), Sex: "F", DrugIDs: drugs, ADRIDs: adrs, DescIDs: desc}
	}
	feats := []Features{
		f(nil, nil, nil),                                  // every set empty
		f([]uint32{1}, nil, []uint32{1, 2}),               // one token in two fields
		f([]uint32{1, 3}, []uint32{1}, []uint32{1, 3, 4}), // in three
		f([]uint32{3}, []uint32{2}, nil),
		f([]uint32{5000}, []uint32{2, 70000}, []uint32{4, 9000}), // past the small tables
		f(nil, []uint32{1, 2}, []uint32{2, 3, 4}),
		f([]uint32{1 << 20}, nil, []uint32{1, 1 << 20}),
	}
	seqs := map[string][][2]int{
		"grouped by prober": {{0, 1}, {2, 1}, {3, 1}, {0, 2}, {1, 2}, {3, 2}, {5, 2}},
		"re-marked":         {{0, 1}, {2, 1}, {2, 3}, {4, 3}, {0, 1}, {5, 1}, {5, 4}},
		"marked end first":  {{1, 2}, {2, 3}, {2, 4}, {5, 2}},
		"growing table":     {{4, 0}, {1, 0}, {1, 3}, {4, 3}, {0, 4}, {6, 4}, {3, 6}, {5, 6}, {5, 1}},
		"empty either side": {{0, 3}, {3, 0}, {0, 0}, {5, 0}, {3, 2}, {0, 2}},
		"no end shared":     {{0, 1}, {2, 3}, {4, 5}, {6, 1}},
	}
	for name, seq := range seqs {
		t.Run(name, func(t *testing.T) {
			ws := &cluster.WorkerScratch{}
			s := NewScorer(ws)
			var got [Dims]float64
			for _, p := range seq {
				a, b := &feats[p[0]], &feats[p[1]]
				s.DistanceInto(got[:], a, b)
				assertVecsBitIdentical(t, fmt.Sprintf("pair %v", p), got[:], Distance(*a, *b))
			}
			s.Release()
			assertMarksZero(t, ws)
		})
	}
}

// TestComputeVectorsArenaMatchesReferenceAndIsIsolated checks the parallel
// arena-backed path against the string reference, and that the
// full-capacity re-slicing isolates neighboring vectors from append.
func TestComputeVectorsArenaMatchesReferenceAndIsIsolated(t *testing.T) {
	c := adrgen.Generate(adrgen.Config{NumReports: 120, DuplicatePairs: 10, NumDrugs: 25, NumADRs: 35, Seed: 11})
	ctx := rdd.NewContext(cluster.New(cluster.Config{Executors: 4}))
	feats, err := ExtractAllWith(ctx, intern.New(), c.Reports, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	pairs := make([]IDPair, 500)
	for i := range pairs {
		pairs[i] = IDPair{A: rng.Intn(len(feats)), B: rng.Intn(len(feats))}
	}
	recs, err := ComputeVectors(ctx, feats, pairs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		assertVecsBitIdentical(t, fmt.Sprintf("pair %d", i),
			r.Vec, referenceDistance(c.Reports[r.A], c.Reports[r.B]))
		if cap(r.Vec) != Dims {
			t.Fatalf("pair %d: Vec capacity %d, want %d (full-capacity arena slice)", i, cap(r.Vec), Dims)
		}
	}
	// Appending to one vector must reallocate, never clobber a neighbor.
	if len(recs) >= 2 {
		saved := append([]float64(nil), recs[1].Vec...)
		_ = append(recs[0].Vec, 99)
		assertVecsBitIdentical(t, "arena isolation", recs[1].Vec, saved)
	}
}

// TestFeaturesGobRoundTrip pins that features survive serialization: a
// persisted feature cache must decode equal and compare identically (gob is
// the repo's model/persist codec).
func TestFeaturesGobRoundTrip(t *testing.T) {
	it := intern.New()
	f := ExtractWith(it, adr.Report{
		CalculatedAge: 61, Sex: "M", ResidentialState: "QLD", OnsetDate: "05/06/2014",
		GenericNameDesc: "Atorvastatin,Aspirin", MedDRAPTName: "Myalgia,Rhabdomyolysis",
		ReportDescription: "the patient developed myalgia then rhabdomyolysis on atorvastatin",
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		t.Fatal(err)
	}
	var got Features
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("decoded %+v, encoded %+v", got, f)
	}
	other := ExtractWith(it, adr.Report{GenericNameDesc: "Aspirin", MedDRAPTName: "Myalgia",
		ReportDescription: "myalgia on aspirin"})
	assertVecsBitIdentical(t, "decoded-vs-original", Distance(got, other), Distance(f, other))
}
