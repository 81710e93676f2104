package adrgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"adrdedup/internal/adr"
	"adrdedup/internal/text"
)

func smallConfig() Config {
	return Config{NumReports: 600, DuplicatePairs: 30, NumDrugs: 120, NumADRs: 200, Seed: 7}
}

func TestLexiconSizesAndUniqueness(t *testing.T) {
	for _, n := range []int{10, 100, 1366, 2000} {
		drugs := DrugLexicon(n)
		if len(drugs) != n {
			t.Fatalf("DrugLexicon(%d) returned %d names", n, len(drugs))
		}
		seen := make(map[string]bool)
		for _, d := range drugs {
			if seen[d] {
				t.Fatalf("duplicate drug %q at n=%d", d, n)
			}
			seen[d] = true
		}
	}
	for _, n := range []int{10, 2351, 3000} {
		adrs := ADRLexicon(n)
		if len(adrs) != n {
			t.Fatalf("ADRLexicon(%d) returned %d terms", n, len(adrs))
		}
		seen := make(map[string]bool)
		for _, a := range adrs {
			if seen[a] {
				t.Fatalf("duplicate ADR %q at n=%d", a, n)
			}
			seen[a] = true
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	if !reflect.DeepEqual(a.Reports, b.Reports) {
		t.Error("same seed produced different reports")
	}
	if !reflect.DeepEqual(a.Duplicates, b.Duplicates) {
		t.Error("same seed produced different ground truth")
	}
	c := Generate(Config{NumReports: 600, DuplicatePairs: 30, NumDrugs: 120, NumADRs: 200, Seed: 8})
	if reflect.DeepEqual(a.Reports, c.Reports) {
		t.Error("different seeds produced identical corpora")
	}
}

func TestGenerateCorpusShape(t *testing.T) {
	c := Generate(smallConfig())
	if len(c.Reports) != 600 {
		t.Fatalf("reports = %d", len(c.Reports))
	}
	if len(c.Duplicates) != 30 {
		t.Fatalf("duplicate pairs = %d", len(c.Duplicates))
	}
	caseNums := make(map[string]bool)
	for i, r := range c.Reports {
		if r.ArrivalSeq != i {
			t.Errorf("report %d ArrivalSeq = %d", i, r.ArrivalSeq)
		}
		if r.CaseNumber == "" || caseNums[r.CaseNumber] {
			t.Errorf("bad or duplicate case number %q", r.CaseNumber)
		}
		caseNums[r.CaseNumber] = true
		if r.CalculatedAge < 1 || r.CalculatedAge > 105 {
			t.Errorf("age out of range: %d", r.CalculatedAge)
		}
		if r.GenericNameDesc == "" || r.MedDRAPTName == "" {
			t.Errorf("report %d missing drug or ADR", i)
		}
	}
	for _, d := range c.Duplicates {
		if d.IdxA == d.IdxB {
			t.Error("self-duplicate pair")
		}
		if c.Reports[d.IdxA].CaseNumber != d.CaseA || c.Reports[d.IdxB].CaseNumber != d.CaseB {
			t.Error("duplicate pair case numbers out of sync with indices")
		}
	}
}

func TestTable3StatisticsAtFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale corpus in -short mode")
	}
	c := Generate(Config{Seed: 1})
	if len(c.Reports) != 10382 {
		t.Errorf("reports = %d, want 10382", len(c.Reports))
	}
	if len(c.Duplicates) != 286 {
		t.Errorf("duplicates = %d, want 286", len(c.Duplicates))
	}
	db := adr.NewDatabase()
	for _, r := range c.Reports {
		r.ArrivalSeq = 0
		if err := db.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	s := db.Summarize()
	// The lexicons bound unique counts; with head-heavy sampling over
	// 10k reports nearly the whole lexicon is touched.
	if s.UniqueDrugs < 1000 || s.UniqueDrugs > 1366 {
		t.Errorf("unique drugs = %d, want close to 1366", s.UniqueDrugs)
	}
	if s.UniqueADRs < 1700 || s.UniqueADRs > 2351 {
		t.Errorf("unique ADRs = %d, want close to 2351", s.UniqueADRs)
	}
	if !strings.HasPrefix(s.ReportPeriod, "2013-") {
		t.Errorf("period = %q", s.ReportPeriod)
	}
}

func TestDuplicatesShareIdentifyingFields(t *testing.T) {
	c := Generate(smallConfig())
	ageMatches := 0
	for _, d := range c.Duplicates {
		a, b := c.Reports[d.IdxA], c.Reports[d.IdxB]
		if a.Sex != b.Sex {
			t.Errorf("duplicate pair %s/%s differs in sex", d.CaseA, d.CaseB)
		}
		if a.CalculatedAge == b.CalculatedAge {
			ageMatches++
		}
		if a.GenericNameDesc != b.GenericNameDesc {
			t.Errorf("duplicate pair %s/%s differs in drugs", d.CaseA, d.CaseB)
		}
	}
	// Age errors are injected in ~12% of channel-overlap duplicates only.
	if ageMatches < len(c.Duplicates)*3/4 {
		t.Errorf("only %d/%d duplicate pairs share age", ageMatches, len(c.Duplicates))
	}
}

func TestDuplicateDescriptionsShareContentWords(t *testing.T) {
	c := Generate(smallConfig())
	for _, d := range c.Duplicates {
		a := text.Process(c.Reports[d.IdxA].ReportDescription)
		b := text.Process(c.Reports[d.IdxB].ReportDescription)
		set := make(map[string]bool)
		for _, tok := range a {
			set[tok] = true
		}
		shared := 0
		for _, tok := range b {
			if set[tok] {
				shared++
			}
		}
		if shared < 3 {
			t.Errorf("pair %s/%s (%s) shares only %d processed tokens",
				d.CaseA, d.CaseB, d.Mode, shared)
		}
	}
}

func TestDescriptionsAreNarrativeLength(t *testing.T) {
	// §4.1: the report description field is significantly longer than
	// identifying fields, with the majority 250-300 characters.
	c := Generate(smallConfig())
	longEnough := 0
	for _, r := range c.Reports {
		if len(r.ReportDescription) >= 150 {
			longEnough++
		}
	}
	if longEnough < len(c.Reports)*9/10 {
		t.Errorf("only %d/%d descriptions are narrative-length", longEnough, len(c.Reports))
	}
}

func TestIsDuplicatePair(t *testing.T) {
	c := Generate(smallConfig())
	d := c.Duplicates[0]
	if !c.IsDuplicatePair(d.IdxA, d.IdxB) || !c.IsDuplicatePair(d.IdxB, d.IdxA) {
		t.Error("IsDuplicatePair false for ground-truth pair")
	}
	if c.IsDuplicatePair(d.IdxA, d.IdxA) {
		t.Error("self pair reported as duplicate")
	}
}

func TestTransposeAgeAlwaysChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for age := 1; age < 100; age++ {
		got := transposeAge(rng, age)
		if got == age {
			t.Errorf("transposeAge(%d) unchanged", age)
		}
		if got < 1 {
			t.Errorf("transposeAge(%d) = %d", age, got)
		}
	}
}

func TestModeStrings(t *testing.T) {
	if ChannelOverlap.String() != "channel-overlap" || FollowUp.String() != "follow-up" {
		t.Error("mode strings wrong")
	}
}

func TestSamplePairs(t *testing.T) {
	c := Generate(smallConfig())
	pairs, err := c.SamplePairs(PairSampleOptions{Total: 2000, HardFraction: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2000 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	pos, neg := 0, 0
	seen := make(map[[2]int]bool)
	for _, p := range pairs {
		if p.A == p.B {
			t.Error("self pair sampled")
		}
		k := pairKey(p.A, p.B)
		if seen[k] {
			t.Errorf("pair %v sampled twice", k)
		}
		seen[k] = true
		switch p.Label {
		case +1:
			pos++
			if !c.IsDuplicatePair(p.A, p.B) {
				t.Error("positive label on non-duplicate pair")
			}
		case -1:
			neg++
			if c.IsDuplicatePair(p.A, p.B) {
				t.Error("negative label on ground-truth duplicate")
			}
		default:
			t.Errorf("bad label %d", p.Label)
		}
	}
	if pos != len(c.Duplicates) {
		t.Errorf("positives = %d, want %d", pos, len(c.Duplicates))
	}
	if neg != 2000-pos {
		t.Errorf("negatives = %d", neg)
	}
}

func TestSamplePairsDeterministic(t *testing.T) {
	c := Generate(smallConfig())
	a, err := c.SamplePairs(PairSampleOptions{Total: 500, HardFraction: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.SamplePairs(PairSampleOptions{Total: 500, HardFraction: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different samples")
	}
}

func TestSamplePairsValidation(t *testing.T) {
	c := Generate(smallConfig())
	if _, err := c.SamplePairs(PairSampleOptions{Total: 5}); err == nil {
		t.Error("expected error when total < positives")
	}
	if _, err := c.SamplePairs(PairSampleOptions{Total: 100, HardFraction: 2}); err == nil {
		t.Error("expected error for bad hard fraction")
	}
}

func TestSamplePairsSubsetPositives(t *testing.T) {
	c := Generate(smallConfig())
	train, test := c.SplitDuplicates(0.6, 3)
	if len(train)+len(test) != len(c.Duplicates) {
		t.Fatalf("split sizes %d+%d != %d", len(train), len(test), len(c.Duplicates))
	}
	pairs, err := c.SamplePairs(PairSampleOptions{Total: 300, Positives: train, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for _, p := range pairs {
		if p.Label == +1 {
			pos++
		}
	}
	if pos != len(train) {
		t.Errorf("positives = %d, want %d", pos, len(train))
	}
}

func TestSplitDuplicatesDeterministicAndDisjoint(t *testing.T) {
	c := Generate(smallConfig())
	tr1, te1 := c.SplitDuplicates(0.5, 11)
	tr2, _ := c.SplitDuplicates(0.5, 11)
	if !reflect.DeepEqual(tr1, tr2) {
		t.Error("split not deterministic")
	}
	inTrain := make(map[[2]int]bool)
	for _, d := range tr1 {
		inTrain[pairKey(d.IdxA, d.IdxB)] = true
	}
	for _, d := range te1 {
		if inTrain[pairKey(d.IdxA, d.IdxB)] {
			t.Error("train and test overlap")
		}
	}
}

// corpusHash folds every field of every report (the 37 TGA fields plus
// ArrivalSeq, by reflection so a new field cannot be missed) and the ground
// truth into one FNV-1a hash.
func corpusHash(c *Corpus) uint64 {
	h := fnv.New64a()
	for i := range c.Reports {
		v := reflect.ValueOf(c.Reports[i])
		for f := 0; f < v.NumField(); f++ {
			fmt.Fprintf(h, "%v\x00", v.Field(f).Interface())
		}
	}
	for _, d := range c.Duplicates {
		fmt.Fprintf(h, "%d\x00%d\x00%s\x00%s\x00%d\x00", d.IdxA, d.IdxB, d.CaseA, d.CaseB, d.Mode)
	}
	return h.Sum64()
}

// TestGenerateGolden pins the generated corpus byte for byte: the hashes
// were captured before the lexicon position maps were memoised on the
// generator, so any change to what Generate emits — which would silently
// move every benchmark workload and seeded exhibit — fails here.
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want uint64
	}{
		{smallConfig(), 0xab78a96373739cde},
		{Config{NumReports: 2000, DuplicatePairs: 120, Seed: 42}, 0xfa52cf3da586ec11},
	} {
		if got := corpusHash(Generate(tc.cfg)); got != tc.want {
			t.Errorf("seed %d: corpus hash %#x, want %#x", tc.cfg.Seed, got, tc.want)
		}
	}
}
