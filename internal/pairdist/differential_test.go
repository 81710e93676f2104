package pairdist

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"

	"adrdedup/internal/adr"
	"adrdedup/internal/adrgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/intern"
	"adrdedup/internal/rdd"
)

// assertVecsBitIdentical fails unless the two vectors are equal under ==,
// i.e. bit-identical (no tolerance).
func assertVecsBitIdentical(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", tag, len(got), len(want))
	}
	for d := range got {
		if got[d] != want[d] {
			t.Fatalf("%s dim %d: interned %v != legacy %v", tag, d, got[d], want[d])
		}
	}
}

// TestInternedKernelBitIdenticalOnGeneratedCorpora pins the interned
// merge-scan kernel to the legacy string-set kernel over randomized
// generated report corpora: every pair's distance vector must be
// bit-identical.
func TestInternedKernelBitIdenticalOnGeneratedCorpora(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c := adrgen.Generate(adrgen.Config{
			NumReports: 150, DuplicatePairs: 15, NumDrugs: 40, NumADRs: 60, Seed: seed,
		})
		it := intern.New()
		legacy := make([]Features, len(c.Reports))
		interned := make([]Features, len(c.Reports))
		for i, r := range c.Reports {
			legacy[i] = Extract(r)
			interned[i] = ExtractWith(it, r)
		}
		rng := rand.New(rand.NewSource(seed * 31))
		for trial := 0; trial < 2000; trial++ {
			a, b := rng.Intn(len(legacy)), rng.Intn(len(legacy))
			assertVecsBitIdentical(t, fmt.Sprintf("seed %d pair (%d,%d)", seed, a, b),
				Distance(interned[a], interned[b]), Distance(legacy[a], legacy[b]))
		}
	}
}

// TestInternedKernelEdgeCaseReports covers the boundary report shapes:
// empty fields, duplicate tokens in multi-valued fields, all-stopword
// descriptions, and unicode tokens.
func TestInternedKernelEdgeCaseReports(t *testing.T) {
	reports := []adr.Report{
		{}, // everything empty
		{GenericNameDesc: "Aspirin", MedDRAPTName: "Headache", ReportDescription: "severe headache after aspirin"},
		{GenericNameDesc: "Aspirin,Aspirin,Aspirin"}, // duplicate tokens
		{MedDRAPTName: "Nausea,Vomiting,Nausea"},
		{ReportDescription: "the of and to"},    // all stopwords -> empty token set
		{ReportDescription: "头痛 悪心 ñandú café"}, // unicode tokens
		{GenericNameDesc: "头痛药", MedDRAPTName: "头痛", ReportDescription: "头痛 headache 头痛"},
		{CalculatedAge: 30, Sex: "F", ResidentialState: "NSW", OnsetDate: "01/01/2020"},
		{CalculatedAge: 30, Sex: "F", ResidentialState: "VIC", OnsetDate: "01/01/2020",
			GenericNameDesc: "Paracetamol,Codeine", MedDRAPTName: "Dizziness",
			ReportDescription: "dizziness and mild nausea reported after paracetamol with codeine"},
	}
	it := intern.New()
	legacy := make([]Features, len(reports))
	interned := make([]Features, len(reports))
	for i, r := range reports {
		legacy[i] = Extract(r)
		interned[i] = ExtractWith(it, r)
	}
	for a := range reports {
		for b := range reports {
			for _, m := range []TextMetric{JaccardMetric, CosineMetric} {
				assertVecsBitIdentical(t, fmt.Sprintf("%s (%d,%d)", m, a, b),
					DistanceWith(interned[a], interned[b], m),
					DistanceWith(legacy[a], legacy[b], m))
			}
		}
	}
}

// TestMixedFeaturesFallBackToStringKernel: comparing an interned feature
// against a legacy one must silently use the string kernel, not read
// incomparable ID sets.
func TestMixedFeaturesFallBackToStringKernel(t *testing.T) {
	r1 := adr.Report{GenericNameDesc: "Aspirin,Ibuprofen", MedDRAPTName: "Headache",
		ReportDescription: "headache resolved after ibuprofen"}
	r2 := adr.Report{GenericNameDesc: "Ibuprofen", MedDRAPTName: "Headache,Nausea",
		ReportDescription: "persistent headache with nausea"}
	it := intern.New()
	mixed := Distance(ExtractWith(it, r1), Extract(r2))
	pure := Distance(Extract(r1), Extract(r2))
	assertVecsBitIdentical(t, "mixed-vs-legacy", mixed, pure)
}

// TestComputeVectorsArenaMatchesLegacyAndIsIsolated checks the parallel
// arena-backed path against the serial legacy kernel, and that the
// full-capacity re-slicing isolates neighboring vectors from append.
func TestComputeVectorsArenaMatchesLegacyAndIsIsolated(t *testing.T) {
	c := adrgen.Generate(adrgen.Config{NumReports: 120, DuplicatePairs: 10, NumDrugs: 25, NumADRs: 35, Seed: 11})
	ctx := rdd.NewContext(cluster.New(cluster.Config{Executors: 4}))
	it := intern.New()
	feats, err := ExtractAllWith(ctx, it, c.Reports, 4)
	if err != nil {
		t.Fatal(err)
	}
	legacy := make([]Features, len(c.Reports))
	for i, r := range c.Reports {
		legacy[i] = Extract(r)
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
			r.Vec, Distance(legacy[r.A], legacy[r.B]))
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

// TestInternedFeaturesGobRoundTrip pins that interned features survive
// serialization: a persisted feature cache must compare identically after
// decode (gob is the repo's model/persist codec).
func TestInternedFeaturesGobRoundTrip(t *testing.T) {
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
	if !got.Interned {
		t.Fatal("Interned flag lost in round trip")
	}
	other := ExtractWith(it, adr.Report{GenericNameDesc: "Aspirin", MedDRAPTName: "Myalgia",
		ReportDescription: "myalgia on aspirin"})
	assertVecsBitIdentical(t, "decoded-vs-original", Distance(got, other), Distance(f, other))
}
