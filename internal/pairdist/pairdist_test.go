package pairdist

import (
	"math"
	"reflect"
	"testing"

	"adrdedup/internal/adr"
	"adrdedup/internal/adrgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/intern"
	"adrdedup/internal/rdd"
	"adrdedup/internal/text"
	"adrdedup/internal/vecmath"
)

func reportA() adr.Report {
	return adr.Report{
		CaseNumber:        "A",
		CalculatedAge:     46,
		Sex:               "M",
		ResidentialState:  "NSW",
		OnsetDate:         "30/04/2013 00:00:00",
		GenericNameDesc:   "Atorvastatin",
		MedDRAPTName:      "Rhabdomyolysis",
		ReportDescription: "The patient experienced rhabdomyolysis while on atorvastatin.",
	}
}

func TestDistanceIdenticalReportsIsZero(t *testing.T) {
	f := ExtractWith(intern.New(), reportA())
	v := Distance(f, f)
	for i, x := range v {
		if x != 0 {
			t.Errorf("dim %d (%s) = %v, want 0", i, FieldNames[i], x)
		}
	}
}

func TestDistanceFieldRules(t *testing.T) {
	a := reportA()
	b := reportA()
	b.CalculatedAge = 84
	b.Sex = "F"
	b.ResidentialState = "VIC"
	b.OnsetDate = "-"
	b.GenericNameDesc = "Paracetamol"
	b.MedDRAPTName = "Headache"
	b.ReportDescription = "Completely different narrative about an unrelated medicine event entirely."
	it := intern.New()
	v := Distance(ExtractWith(it, a), ExtractWith(it, b))
	for i := FieldAge; i <= FieldOnsetDate; i++ {
		if v[i] != 1 {
			t.Errorf("categorical dim %d = %v, want 1", i, v[i])
		}
	}
	if v[FieldDrugName] != 1 || v[FieldADRName] != 1 {
		t.Errorf("disjoint sets should have Jaccard distance 1: %v", v)
	}
	if v[FieldDescription] <= 0.5 {
		t.Errorf("unrelated descriptions distance = %v, want > 0.5", v[FieldDescription])
	}
}

func TestDistancePartialOverlapInLists(t *testing.T) {
	a := reportA()
	a.MedDRAPTName = "Vomiting,Pyrexia,Cough,Headache"
	b := reportA()
	b.MedDRAPTName = "Cough,Headache,Choking sensation,Chills,Vomiting"
	it := intern.New()
	v := Distance(ExtractWith(it, a), ExtractWith(it, b))
	// Overlap = {Vomiting, Cough, Headache} = 3; union = 6; distance = 0.5.
	if math.Abs(v[FieldADRName]-0.5) > 1e-12 {
		t.Errorf("ADR Jaccard distance = %v, want 0.5", v[FieldADRName])
	}
}

func TestDistanceRangeAndSymmetry(t *testing.T) {
	c := adrgen.Generate(adrgen.Config{NumReports: 100, DuplicatePairs: 10, NumDrugs: 30, NumADRs: 40, Seed: 2})
	it := intern.New()
	feats := make([]Features, len(c.Reports))
	for i, r := range c.Reports {
		feats[i] = ExtractWith(it, r)
	}
	for i := 0; i < 50; i++ {
		a, b := feats[i], feats[99-i]
		v1 := Distance(a, b)
		v2 := Distance(b, a)
		for d := 0; d < Dims; d++ {
			if v1[d] < 0 || v1[d] > 1 {
				t.Fatalf("dim %d out of range: %v", d, v1[d])
			}
			if math.Abs(v1[d]-v2[d]) > 1e-12 {
				t.Fatalf("asymmetric at dim %d", d)
			}
		}
	}
}

func TestDuplicatesCloserThanRandomPairs(t *testing.T) {
	// The property the whole system rests on: ground-truth duplicates have
	// systematically smaller distance vectors than random pairs.
	c := adrgen.Generate(adrgen.Config{NumReports: 400, DuplicatePairs: 40, NumDrugs: 80, NumADRs: 120, Seed: 3})
	it := intern.New()
	feats := make([]Features, len(c.Reports))
	for i, r := range c.Reports {
		feats[i] = ExtractWith(it, r)
	}
	var dupMean, randMean float64
	for _, d := range c.Duplicates {
		dupMean += vecmath.Norm(Distance(feats[d.IdxA], feats[d.IdxB]))
	}
	dupMean /= float64(len(c.Duplicates))
	n := 0
	for i := 0; i < 200; i += 2 {
		if c.IsDuplicatePair(i, i+1) {
			continue
		}
		randMean += vecmath.Norm(Distance(feats[i], feats[i+1]))
		n++
	}
	randMean /= float64(n)
	if dupMean >= randMean*0.7 {
		t.Errorf("duplicate mean norm %v not clearly below random mean %v", dupMean, randMean)
	}
}

// TestExtractAllWithResolvesToReferenceTokens pins what parallel extraction
// keeps of each report: the four exact-match fields verbatim, and ID sets
// that resolve through the interner to exactly the distinct tokens of the
// string reference (adr.SplitMulti, text.Process), in increasing ID order.
func TestExtractAllWithResolvesToReferenceTokens(t *testing.T) {
	c := adrgen.Generate(adrgen.Config{NumReports: 120, DuplicatePairs: 5, NumDrugs: 20, NumADRs: 30, Seed: 4})
	ctx := rdd.NewContext(cluster.New(cluster.Config{Executors: 4}))
	it := intern.New()
	got, err := ExtractAllWith(ctx, it, c.Reports, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(c.Reports) {
		t.Fatalf("features = %d", len(got))
	}
	resolve := func(ids []uint32) map[string]bool {
		out := make(map[string]bool, len(ids))
		for i, id := range ids {
			tok, ok := it.Resolve(id)
			if !ok || (i > 0 && ids[i-1] >= id) {
				t.Fatalf("ID set %v is not a sorted set of assigned IDs", ids)
			}
			out[tok] = true
		}
		return out
	}
	distinct := func(toks []string) map[string]bool {
		out := make(map[string]bool, len(toks))
		for _, tok := range toks {
			out[tok] = true
		}
		return out
	}
	for i, r := range c.Reports {
		f := got[i]
		if f.Age != r.CalculatedAge || f.Sex != r.Sex || f.State != r.ResidentialState || f.OnsetDate != r.OnsetDate {
			t.Fatalf("feature %d: exact-match fields %+v differ from report", i, f)
		}
		for _, field := range []struct {
			ids  []uint32
			want []string
		}{
			{f.DrugIDs, adr.SplitMulti(r.GenericNameDesc)},
			{f.ADRIDs, adr.SplitMulti(r.MedDRAPTName)},
			{f.DescIDs, text.Process(r.ReportDescription)},
		} {
			if g, w := resolve(field.ids), distinct(field.want); !reflect.DeepEqual(g, w) {
				t.Fatalf("feature %d: IDs resolve to %v, reference tokens %v", i, g, w)
			}
		}
	}
}

// TestExtractAllWithAssignsIDsInArrivalOrder pins what makes interned IDs —
// and every counter downstream of candgen's rank tie-break — independent of
// goroutine scheduling: however the extract tasks interleave on a real
// worker pool, IDs come out exactly as a sequential ExtractWith loop over the
// reports assigns them. Arrival sequences far outside [0, len) (a batch
// arriving at a grown database) must not disturb the order of the result.
func TestExtractAllWithAssignsIDsInArrivalOrder(t *testing.T) {
	c := adrgen.Generate(adrgen.Config{NumReports: 300, DuplicatePairs: 10, NumDrugs: 40, NumADRs: 60, Seed: 6})
	reports := append([]adr.Report(nil), c.Reports...)
	for i := range reports {
		reports[i].ArrivalSeq += 5000
	}
	serial := intern.New()
	want := make([]Features, len(reports))
	for i, r := range reports {
		want[i] = ExtractWith(serial, r)
	}
	for run := 0; run < 3; run++ {
		cl := cluster.New(cluster.Config{Executors: 4, RealWorkers: 4})
		got, err := ExtractAllWith(rdd.NewContext(cl), intern.New(), reports, 16)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: parallel extraction differs from the sequential ExtractWith loop", run)
		}
	}
}

func TestComputeVectors(t *testing.T) {
	c := adrgen.Generate(adrgen.Config{NumReports: 100, DuplicatePairs: 8, NumDrugs: 20, NumADRs: 30, Seed: 5})
	ctx := rdd.NewContext(cluster.New(cluster.Config{Executors: 4}))
	feats, err := ExtractAllWith(ctx, intern.New(), c.Reports, 4)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []IDPair{{A: 0, B: 1, Label: -1}, {A: 2, B: 3, Label: -1}, {A: 4, B: 5}}
	recs, err := ComputeVectors(ctx, feats, pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, r := range recs {
		if r.A != pairs[i].A || r.B != pairs[i].B || r.Label != pairs[i].Label {
			t.Errorf("record %d identity mismatch: %+v", i, r)
		}
		want := Distance(feats[r.A], feats[r.B])
		for d := 0; d < Dims; d++ {
			if math.Abs(r.Vec[d]-want[d]) > 1e-12 {
				t.Errorf("record %d dim %d = %v, want %v", i, d, r.Vec[d], want[d])
			}
		}
	}
	if ctx.Cluster().Metrics().Comparisons.Load() != 3 {
		t.Errorf("comparisons metric = %d", ctx.Cluster().Metrics().Comparisons.Load())
	}
}
