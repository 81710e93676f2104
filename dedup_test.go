package adrdedup

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"adrdedup/internal/adr"
	"adrdedup/internal/adrgen"
	"adrdedup/internal/candgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
	"adrdedup/internal/strsim"
	"adrdedup/internal/text"
)

// testCorpus returns a small deterministic corpus plus a detector pre-loaded
// with all but the last `holdout` reports.
func testCorpus(t *testing.T, holdout int) (*adrgen.Corpus, *Detector, []adr.Report) {
	t.Helper()
	c := newTestCorpus()
	det, batch := loadCorpus(t, c, testOptions(), holdout)
	return c, det, batch
}

// newTestCorpus generates testCorpus's reports.
func newTestCorpus() *adrgen.Corpus {
	return adrgen.Generate(adrgen.Config{
		NumReports: 500, DuplicatePairs: 40, NumDrugs: 80, NumADRs: 120, Seed: 42,
	})
}

// testOptions is the detector configuration testCorpus loads into.
func testOptions() Options {
	return Options{
		Cluster:    cluster.Config{Executors: 4, CoresPerExecutor: 2},
		Classifier: core.Config{K: 7, B: 8, C: 4, Theta: 0, Seed: 1},
	}
}

// loadCorpus returns a detector built from opts and loaded with all but the
// last `holdout` reports of c, and those last reports as the batch.
func loadCorpus(t *testing.T, c *adrgen.Corpus, opts Options, holdout int) (*Detector, []adr.Report) {
	t.Helper()
	det, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(c.Reports) - holdout
	// Strip generator arrival sequences; the database assigns its own.
	existing := make([]adr.Report, cut)
	copy(existing, c.Reports[:cut])
	batch := make([]adr.Report, holdout)
	copy(batch, c.Reports[cut:])
	if err := det.AddKnownReports(existing); err != nil {
		t.Fatal(err)
	}
	return det, batch
}

// trainOnGroundTruth trains the detector on all duplicate pairs fully inside
// the loaded database plus sampled negatives.
func trainOnGroundTruth(t *testing.T, c *adrgen.Corpus, det *Detector, negatives int) {
	t.Helper()
	if err := det.TrainFromLabeledCases(groundTruthPairs(c, det, negatives)); err != nil {
		t.Fatal(err)
	}
}

// groundTruthPairs is trainOnGroundTruth's labelled set.
func groundTruthPairs(c *adrgen.Corpus, det *Detector, negatives int) []LabeledCasePair {
	var labelled []LabeledCasePair
	for _, d := range c.Duplicates {
		if _, okA := det.Database().Get(d.CaseA); !okA {
			continue
		}
		if _, okB := det.Database().Get(d.CaseB); !okB {
			continue
		}
		labelled = append(labelled, LabeledCasePair{CaseA: d.CaseA, CaseB: d.CaseB, Duplicate: true})
	}
	// Negative sampling mirrors the paper's curated non-duplicate
	// database: it must contain the confusable pairs (same campaign)
	// alongside ordinary ones, or the classifier never learns the
	// boundary that matters.
	reports := det.Database().Reports()
	count := 0
	byCampaign := make(map[int][]int)
	for i, camp := range c.CampaignOf {
		if camp < 0 {
			continue
		}
		if _, ok := det.Database().Get(c.Reports[i].CaseNumber); ok {
			byCampaign[camp] = append(byCampaign[camp], i)
		}
	}
	// Iterate campaigns in sorted order: map iteration order would make
	// the training set differ run to run.
	campIDs := make([]int, 0, len(byCampaign))
	for id := range byCampaign {
		campIDs = append(campIDs, id)
	}
	sort.Ints(campIDs)
	hardBudget := negatives / 3
	for _, id := range campIDs {
		members := byCampaign[id]
		for i := 0; i+1 < len(members) && count < hardBudget; i++ {
			a, b := members[i], members[i+1]
			if c.IsDuplicatePair(a, b) {
				continue
			}
			labelled = append(labelled, LabeledCasePair{
				CaseA: c.Reports[a].CaseNumber, CaseB: c.Reports[b].CaseNumber,
			})
			count++
		}
	}
	step := len(reports)*len(reports)/(2*negatives) + 1
	for i := 0; i < len(reports) && count < negatives; i++ {
		for j := i + 1; j < len(reports) && count < negatives; j += step {
			a, b := reports[i], reports[j]
			if c.IsDuplicatePair(a.ArrivalSeq, b.ArrivalSeq) {
				continue
			}
			labelled = append(labelled, LabeledCasePair{CaseA: a.CaseNumber, CaseB: b.CaseNumber})
			count++
		}
	}
	return labelled
}

func TestNewValidatesClassifierConfig(t *testing.T) {
	if _, err := New(Options{Classifier: core.Config{K: 4}}); err == nil {
		t.Error("even k must be rejected")
	}
}

func TestDetectRequiresTraining(t *testing.T) {
	det, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect([]adr.Report{{CaseNumber: "X"}}); err == nil {
		t.Error("Detect before training must fail")
	}
}

func TestTrainFromLabeledCasesUnknownCase(t *testing.T) {
	det, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = det.TrainFromLabeledCases([]LabeledCasePair{{CaseA: "nope", CaseB: "also-nope"}})
	if err == nil {
		t.Error("unknown case numbers must fail")
	}
	if err := det.TrainFromLabeledCases(nil); err == nil {
		t.Error("empty training must fail")
	}
}

func TestEndToEndDetectFindsInjectedDuplicate(t *testing.T) {
	c, det, batch := testCorpus(t, 20)
	trainOnGroundTruth(t, c, det, 2000)
	if !det.Trained() {
		t.Fatal("not trained")
	}

	// Find a ground-truth duplicate pair with one half in the batch and
	// one half in the database; there is usually at least one with a
	// 20-report batch and 40 duplicate pairs.
	type target struct{ inDB, inBatch string }
	var targets []target
	inBatch := make(map[string]bool)
	for _, r := range batch {
		inBatch[r.CaseNumber] = true
	}
	for _, d := range c.Duplicates {
		_, aDB := det.Database().Get(d.CaseA)
		_, bDB := det.Database().Get(d.CaseB)
		switch {
		case aDB && inBatch[d.CaseB]:
			targets = append(targets, target{inDB: d.CaseA, inBatch: d.CaseB})
		case bDB && inBatch[d.CaseA]:
			targets = append(targets, target{inDB: d.CaseB, inBatch: d.CaseA})
		}
	}

	matches, err := det.Detect(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches returned")
	}
	found := make(map[[2]string]Match)
	for _, m := range matches {
		found[[2]string{m.CaseA, m.CaseB}] = m
		found[[2]string{m.CaseB, m.CaseA}] = m
	}
	if len(targets) > 0 {
		recovered := 0
		for _, tg := range targets {
			if m, ok := found[[2]string{tg.inDB, tg.inBatch}]; ok && m.Duplicate {
				recovered++
			}
		}
		if recovered == 0 {
			t.Errorf("none of %d cross-batch ground-truth duplicates detected", len(targets))
		}
	}
	// Matches must be sorted by descending score.
	for i := 1; i < len(matches); i++ {
		if matches[i].Score > matches[i-1].Score {
			t.Fatal("matches not sorted by score")
		}
	}
	// Precision sanity: most positive decisions should be true duplicates.
	dups := Duplicates(matches)
	if len(dups) > 0 {
		correct := 0
		for _, m := range dups {
			a, _ := det.Database().Get(m.CaseA)
			b, _ := det.Database().Get(m.CaseB)
			if c.IsDuplicatePair(a.ArrivalSeq, b.ArrivalSeq) {
				correct++
			}
		}
		if float64(correct) < 0.5*float64(len(dups)) {
			t.Errorf("only %d/%d detected duplicates are real", correct, len(dups))
		}
	}
	// The batch was absorbed: database grew.
	if det.Database().Len() != 500 {
		t.Errorf("database has %d reports, want 500", det.Database().Len())
	}
}

func TestDetectEmptyBatch(t *testing.T) {
	c, det, _ := testCorpus(t, 10)
	trainOnGroundTruth(t, c, det, 500)
	matches, err := det.Detect(nil)
	if err != nil || matches != nil {
		t.Errorf("empty batch: %v, %v", matches, err)
	}
}

// TestDuplicatesKeepsOrderAllocatesKept pins Duplicates: the positive
// matches in their input order, in a slice no larger than what it keeps (a
// batch-shaped call keeps a few dozen of tens of thousands), and an empty,
// non-nil slice when nothing is kept, which encodes as a JSON array.
func TestDuplicatesKeepsOrderAllocatesKept(t *testing.T) {
	var matches []Match
	for i := 0; i < 1000; i++ {
		matches = append(matches, Match{
			CaseA: fmt.Sprintf("A-%d", i), CaseB: fmt.Sprintf("B-%d", i),
			Score: 1 - float64(i)/1000, Duplicate: i%97 == 3, Pruned: i%5 == 0,
		})
	}
	var want []Match
	for _, m := range matches {
		if m.Duplicate {
			want = append(want, m)
		}
	}
	got := Duplicates(matches)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Duplicates returned %v, want %v", got, want)
	}
	if cap(got) != len(want) {
		t.Fatalf("Duplicates kept %d matches in a slice of capacity %d", len(got), cap(got))
	}
	for _, in := range [][]Match{nil, matches[:3]} {
		if got := Duplicates(in); got == nil || len(got) != 0 {
			t.Fatalf("Duplicates of %d non-duplicates returned %#v, want an empty non-nil slice", len(in), got)
		}
	}
}

func TestDetectAllIncludesPruned(t *testing.T) {
	c := adrgen.Generate(adrgen.Config{
		NumReports: 300, DuplicatePairs: 25, NumDrugs: 50, NumADRs: 80, Seed: 7,
	})
	det, err := New(Options{
		Cluster: cluster.Config{Executors: 2},
		Classifier: core.Config{K: 5, B: 4, C: 2, Seed: 2,
			Pruning: &core.PruningConfig{Clusters: 4, FTheta: 0.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddKnownReports(c.Reports[:290]); err != nil {
		t.Fatal(err)
	}
	trainOnGroundTruth(t, c, det, 800)
	all, err := det.DetectAll(c.Reports[290:])
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for _, m := range all {
		if m.Pruned {
			pruned++
		}
	}
	if pruned == 0 {
		t.Error("expected some pruned candidate pairs with pruning enabled")
	}
	concise, err := det.Detect(nil)
	_ = concise
	if err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalBatchesAccumulate(t *testing.T) {
	c, det, batch := testCorpus(t, 30)
	trainOnGroundTruth(t, c, det, 1000)
	first := batch[:15]
	second := batch[15:]
	if _, err := det.Detect(first); err != nil {
		t.Fatal(err)
	}
	lenAfterFirst := det.Database().Len()
	if _, err := det.Detect(second); err != nil {
		t.Fatal(err)
	}
	if det.Database().Len() != lenAfterFirst+15 {
		t.Errorf("second batch not absorbed: %d", det.Database().Len())
	}
}

func TestTrainFromIDPairsMatchesLabeledCases(t *testing.T) {
	c, byID, batch := testCorpus(t, 10)
	ids := []pairdist.IDPair{{A: 0, B: 1, Label: -1}, {A: 2, B: 3, Label: +1}, {A: 4, B: 5, Label: -1}}
	if err := byID.TrainFromIDPairs(ids); err != nil {
		t.Fatal(err)
	}
	byCase, _ := loadCorpus(t, c, testOptions(), 10)
	labelled := make([]LabeledCasePair, len(ids))
	for i, p := range ids {
		a, _ := byCase.db.CaseNumber(p.A)
		b, _ := byCase.db.CaseNumber(p.B)
		labelled[i] = LabeledCasePair{CaseA: a, CaseB: b, Duplicate: p.Label > 0}
	}
	if err := byCase.TrainFromLabeledCases(labelled); err != nil {
		t.Fatal(err)
	}
	got, err := byID.Detect(slices.Clone(batch))
	if err != nil {
		t.Fatal(err)
	}
	want, err := byCase.Detect(slices.Clone(batch))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no matches; the comparison is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trained from ID pairs: %d matches differ from the same pairs by case number (%d matches)", len(got), len(want))
	}
}

func TestValidateBatch(t *testing.T) {
	det, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := []adr.Report{
		{CaseNumber: "OK", CalculatedAge: 30, Sex: "F",
			GenericNameDesc: "Atorvastatin", MedDRAPTName: "Myalgia"},
		{CaseNumber: "BAD", CalculatedAge: 400, Sex: "Z"},
		{CalculatedAge: 30, GenericNameDesc: "X", MedDRAPTName: "Y"}, // no case number
	}
	issues := det.ValidateBatch(batch)
	if len(issues) != 2 {
		t.Fatalf("flagged %d reports, want 2: %v", len(issues), issues)
	}
	if len(issues["BAD"]) < 2 {
		t.Errorf("BAD issues = %v", issues["BAD"])
	}
	if _, ok := issues["OK"]; ok {
		t.Error("clean report flagged")
	}
}

func TestDetectUnderFaultInjectionMatchesCleanRun(t *testing.T) {
	c := adrgen.Generate(adrgen.Config{
		NumReports: 400, DuplicatePairs: 30, NumDrugs: 60, NumADRs: 90, Seed: 21,
	})
	run := func(failureRate float64) []Match {
		det, err := New(Options{
			Cluster: cluster.Config{
				Executors: 4, FailureRate: failureRate, MaxTaskRetries: 40, Seed: 9,
			},
			Classifier: core.Config{K: 7, B: 6, C: 3, Seed: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		existing := make([]adr.Report, 385)
		copy(existing, c.Reports[:385])
		batch := make([]adr.Report, 15)
		copy(batch, c.Reports[385:])
		for i := range existing {
			existing[i].ArrivalSeq = 0
		}
		for i := range batch {
			batch[i].ArrivalSeq = 0
		}
		if err := det.AddKnownReports(existing); err != nil {
			t.Fatal(err)
		}
		trainOnGroundTruth(t, c, det, 600)
		matches, err := det.Detect(batch)
		if err != nil {
			t.Fatal(err)
		}
		return matches
	}
	clean := run(0)
	faulty := run(0.2)
	if len(clean) != len(faulty) {
		t.Fatalf("match counts differ: %d vs %d", len(clean), len(faulty))
	}
	for i := range clean {
		if clean[i].CaseA != faulty[i].CaseA || clean[i].CaseB != faulty[i].CaseB ||
			clean[i].Duplicate != faulty[i].Duplicate {
			t.Fatalf("fault injection changed match %d: %+v vs %+v", i, clean[i], faulty[i])
		}
	}
}

// referenceVector is the §4.2 distance vector of two reports computed from
// their strings: equality on the four exact-match fields, and
// strsim.JaccardDistance (Eq. 4) over the split drug and reaction lists and
// over the processed description tokens.
func referenceVector(a, b adr.Report) []float64 {
	differ := func(x bool) float64 {
		if x {
			return 1
		}
		return 0
	}
	return []float64{
		pairdist.FieldAge:       differ(a.CalculatedAge != b.CalculatedAge),
		pairdist.FieldSex:       differ(a.Sex != b.Sex),
		pairdist.FieldState:     differ(a.ResidentialState != b.ResidentialState),
		pairdist.FieldOnsetDate: differ(a.OnsetDate != b.OnsetDate),
		pairdist.FieldDrugName:  strsim.JaccardDistance(adr.SplitMulti(a.GenericNameDesc), adr.SplitMulti(b.GenericNameDesc)),
		pairdist.FieldADRName:   strsim.JaccardDistance(adr.SplitMulti(a.MedDRAPTName), adr.SplitMulti(b.MedDRAPTName)),
		pairdist.FieldDescription: strsim.JaccardDistance(
			text.Process(a.ReportDescription), text.Process(b.ReportDescription)),
	}
}

// referenceTokens is a report's signature token set rebuilt from its
// strings: its drugs, reactions and processed description tokens.
func referenceTokens(r adr.Report) map[string]bool {
	set := make(map[string]bool)
	for _, toks := range [][]string{adr.SplitMulti(r.GenericNameDesc), adr.SplitMulti(r.MedDRAPTName), text.Process(r.ReportDescription)} {
		for _, tok := range toks {
			set[tok] = true
		}
	}
	return set
}

// TestDetectMatchesStringReference is the end-to-end guarantee on top of the
// per-pair differential tests in internal/pairdist. One DetectAll must return
// exactly the pairs of Eq. 3, and each match must carry the verdict the
// detector's classifier gives, in one Classify call, the pair's vector
// rebuilt from the two reports' strings: score bit for bit, decision and
// pruning flag equal. In every scoringSetups setup.
func TestDetectMatchesStringReference(t *testing.T) {
	for _, tc := range scoringSetups() {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCorpus()
			det, batch := loadCorpus(t, c, tc.opts, 20)
			trainOnGroundTruth(t, c, det, 2000)
			existing := det.db.Len()
			matches, err := det.DetectAll(batch)
			if err != nil {
				t.Fatal(err)
			}

			// Eq. 3: each batch report against every report before it.
			reports := det.db.Reports()
			eq3 := make(map[[2]string]bool)
			for b := existing; b < len(reports); b++ {
				for a := 0; a < b; a++ {
					eq3[[2]string{reports[a].CaseNumber, reports[b].CaseNumber}] = true
				}
			}
			if len(matches) != len(eq3) {
				t.Fatalf("DetectAll returned %d matches, Eq. 3 defines %d pairs", len(matches), len(eq3))
			}
			vecs := make([][]float64, len(matches))
			for i, m := range matches {
				key := [2]string{m.CaseA, m.CaseB}
				if !eq3[key] {
					t.Fatalf("match %d (%s, %s) is not an Eq. 3 pair, or repeats one", i, m.CaseA, m.CaseB)
				}
				delete(eq3, key)
				a, _ := det.db.Get(m.CaseA)
				b, _ := det.db.Get(m.CaseB)
				vecs[i] = referenceVector(a, b)
			}

			results, _, err := det.model.clf.Classify(vecs)
			if err != nil {
				t.Fatal(err)
			}
			pruned, duplicates := 0, 0
			for i, m := range matches {
				r := results[i]
				if math.Float64bits(m.Score) != math.Float64bits(r.Score) || m.Duplicate != (r.Label > 0) || m.Pruned != r.Pruned {
					t.Fatalf("match %d %+v; the string reference scores %v, label %d, pruned %v",
						i, m, r.Score, r.Label, r.Pruned)
				}
				if m.Pruned {
					pruned++
				}
				if m.Duplicate {
					duplicates++
				}
			}
			if duplicates == 0 {
				t.Fatal("no duplicates found; the comparison would be vacuous")
			}
			checkSetupFired(t, tc.opts, det, pruned)
		})
	}
}

// TestPrefixCandidatesMatchStringSetReference pins the interned-ID prefix
// index to a string reference: the candidate pairs of a batch are exactly
// the pairs whose drug ∪ reaction ∪ description token sets, rebuilt from the
// reports' strings, reach the threshold under a hash-set Jaccard.
func TestPrefixCandidatesMatchStringSetReference(t *testing.T) {
	_, det, batch := prefixTestDetector(t, 20)
	existing := det.db.Len()
	if err := det.absorb(batch); err != nil {
		t.Fatal(err)
	}
	got, err := det.candidates(existing)
	if err != nil {
		t.Fatal(err)
	}

	reports := det.db.Reports()
	sets := make([]map[string]bool, len(reports))
	for i, r := range reports {
		sets[i] = referenceTokens(r)
	}
	want := make(map[[2]int]bool)
	for b := existing; b < len(sets); b++ {
		for a := 0; a < b; a++ {
			inter := 0
			for s := range sets[a] {
				if sets[b][s] {
					inter++
				}
			}
			union := len(sets[a]) + len(sets[b]) - inter
			if union == 0 || float64(inter) >= prefixTestTheta*float64(union) {
				want[[2]int{a, b}] = true
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("prefix-index candidates: %d pairs, string-set reference %d", len(got), len(want))
	}
	for _, p := range got {
		if !want[[2]int{p.A, p.B}] {
			t.Errorf("pair (%d,%d) not in the string-set reference", p.A, p.B)
		}
	}
	if len(got) == 0 {
		t.Fatal("no candidates; test would be vacuous")
	}
}

func TestMetricsExposed(t *testing.T) {
	c, det, _ := testCorpus(t, 10)
	_ = c
	m := det.Metrics()
	if m.RecordsProcessed == 0 {
		t.Error("feature extraction should have processed records")
	}
	if det.Engine() == nil {
		t.Error("engine must be exposed")
	}
}

// TestDetectRollsBackOnEngineFailure pins the atomicity of Detect on the
// early error path: the batch is absorbed into the database *before*
// feature extraction, so a failed extraction must put the database back or
// the batch is silently lost — a retry then failed on its own case numbers
// instead of detecting anything.
func TestDetectRollsBackOnEngineFailure(t *testing.T) {
	checkRollsBackAndRetries(t, "extract")
}

// TestDetectRollsBackOnClassifierFailure pins the late error path: the
// failure strikes *after* the batch's features were extracted and appended,
// so both the database and the feature slice must roll back together.
func TestDetectRollsBackOnClassifierFailure(t *testing.T) {
	checkRollsBackAndRetries(t, "classify")
}

// checkRollsBackAndRetries fails a testCorpus batch at failDetect's position,
// requires the database and the features to be back at their old length,
// and requires the retried batch to be absorbed and to return the matches a
// detector that never failed returns.
func checkRollsBackAndRetries(t *testing.T, position string) {
	t.Helper()
	c, det, batch := testCorpus(t, 20)
	trainOnGroundTruth(t, c, det, 2000)
	existing := det.Database().Len()
	nFeats := len(det.feats)

	failDetect(t, det, position, batch)
	if got := det.Database().Len(); got != existing {
		t.Fatalf("failed Detect left the database at %d reports, want %d", got, existing)
	}
	if got := len(det.feats); got != nFeats {
		t.Fatalf("failed Detect left %d features, want %d", got, nFeats)
	}

	matches, err := det.Detect(batch)
	if err != nil {
		t.Fatalf("retrying the batch after a failed Detect: %v", err)
	}
	if got := det.Database().Len(); got != existing+len(batch) {
		t.Fatalf("retried Detect absorbed to %d reports, want %d", got, existing+len(batch))
	}

	c, clean, batch := testCorpus(t, 20)
	trainOnGroundTruth(t, c, clean, 2000)
	want, err := clean.Detect(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("never-failed Detect returned no matches; comparison would be vacuous")
	}
	if !reflect.DeepEqual(matches, want) {
		t.Fatalf("retried Detect returned %d matches, a never-failed detector %d", len(matches), len(want))
	}
}

// relabelCases renames report i of c "A-<perm[i]>", perm a fixed permutation,
// so case-number string order differs from both arrival order and numeric
// order ("A-10" < "A-9").
func relabelCases(c *adrgen.Corpus) {
	perm := rand.New(rand.NewSource(5)).Perm(len(c.Reports))
	for i := range c.Reports {
		c.Reports[i].CaseNumber = fmt.Sprintf("A-%d", perm[i])
	}
	for i := range c.Duplicates {
		d := &c.Duplicates[i]
		d.CaseA, d.CaseB = c.Reports[d.IdxA].CaseNumber, c.Reports[d.IdxB].CaseNumber
	}
}

// TestDetectMatchOrderDeterministic pins the total order of Detect's output:
// descending score, ties broken by (CaseA, CaseB) in string order. kNN scores
// take few distinct values, so equal-score runs are long and an unstable sort
// keyed on score alone shuffled them unpredictably. Case numbers are
// relabelled so that an order following arrival sequences or case-number
// digits instead of strings fails.
func TestDetectMatchOrderDeterministic(t *testing.T) {
	run := func() ([]Match, *Detector) {
		c := newTestCorpus()
		relabelCases(c)
		det, batch := loadCorpus(t, c, testOptions(), 20)
		trainOnGroundTruth(t, c, det, 2000)
		matches, err := det.DetectAll(batch)
		if err != nil {
			t.Fatal(err)
		}
		return matches, det
	}
	matches, det := run()
	if len(matches) < 2 {
		t.Fatalf("only %d matches; ordering test is vacuous", len(matches))
	}
	arrival := func(caseNumber string) int {
		r, _ := det.Database().Get(caseNumber)
		return r.ArrivalSeq
	}
	number := func(caseNumber string) int {
		n, err := strconv.Atoi(strings.TrimPrefix(caseNumber, "A-"))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	ties, longest, runLen, notByArrival, notByNumber := 0, 1, 1, 0, 0
	for i := 1; i < len(matches); i++ {
		a, b := matches[i-1], matches[i]
		if a.Score < b.Score {
			t.Fatalf("matches %d,%d not in descending score order: %v < %v", i-1, i, a.Score, b.Score)
		}
		if a.Score != b.Score {
			runLen = 1
			continue
		}
		ties++
		runLen++
		longest = max(longest, runLen)
		if a.CaseA > b.CaseA || (a.CaseA == b.CaseA && a.CaseB >= b.CaseB) {
			t.Fatalf("equal-score matches %d,%d not ordered by case numbers: (%s,%s) before (%s,%s)",
				i-1, i, a.CaseA, a.CaseB, b.CaseA, b.CaseB)
		}
		if a.CaseA != b.CaseA {
			if arrival(a.CaseA) > arrival(b.CaseA) {
				notByArrival++
			}
			if number(a.CaseA) > number(b.CaseA) {
				notByNumber++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no equal-score runs in output; tie-break untested")
	}
	if longest < 100 {
		t.Fatalf("longest equal-score run has %d matches; want a large group", longest)
	}
	if notByArrival == 0 || notByNumber == 0 {
		t.Fatalf("tie-breaks against arrival order %d, against numeric order %d: both must occur", notByArrival, notByNumber)
	}
	// A fully independent re-run must reproduce the identical sequence.
	again, _ := run()
	if len(again) != len(matches) {
		t.Fatalf("re-run returned %d matches, first run %d", len(again), len(matches))
	}
	for i := range matches {
		if matches[i] != again[i] {
			t.Fatalf("match %d differs between identical runs: %+v vs %+v", i, matches[i], again[i])
		}
	}
}

// refTable is referenceDetect's score table: the result of every vector it
// has classified, keyed on the vector's bits.
type refTable map[[pairdist.Dims]uint64]core.Result

// referenceDetect is Detect spelled out step by step on det: absorb the batch,
// vectorize its candidate pairs, classify them, and return every match
// (pruned included, as DetectAll does) sorted by descending score and then
// (CaseA, CaseB) in string order. With a nil table it classifies every pair.
// Otherwise pairs whose vector the table holds read it from there, each other
// vector is classified once, and its result is added to the table. It also
// returns the vectors classified and the engine records the steps committed.
func referenceDetect(t *testing.T, det *Detector, batch []adr.Report, table refTable) (_ []Match, classified int, records int64) {
	t.Helper()
	before := det.Metrics().RecordsProcessed
	existing := det.db.Len()
	if err := det.absorb(batch); err != nil {
		t.Fatal(err)
	}
	ids, err := det.candidates(existing)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := pairdist.ComputeVectors(det.ctx, det.feats, ids, det.classifierPartitions())
	if err != nil {
		t.Fatal(err)
	}
	var vecs [][]float64
	slot := make([]int, len(recs)) // index into vecs, or -1: read from table
	keys := make([][pairdist.Dims]uint64, len(recs))
	pending := make(map[[pairdist.Dims]uint64]int)
	for i, r := range recs {
		for j, x := range r.Vec {
			keys[i][j] = math.Float64bits(x)
		}
		if table != nil {
			if _, ok := table[keys[i]]; ok {
				slot[i] = -1
				continue
			}
			if s, ok := pending[keys[i]]; ok {
				slot[i] = s
				continue
			}
			pending[keys[i]] = len(vecs)
		}
		slot[i] = len(vecs)
		vecs = append(vecs, r.Vec)
	}
	results, _, err := det.model.clf.Classify(vecs)
	if err != nil {
		t.Fatal(err)
	}
	records = det.Metrics().RecordsProcessed - before
	matches := make([]Match, len(ids))
	for i, p := range ids {
		var res core.Result
		if slot[i] < 0 {
			res = table[keys[i]]
		} else {
			res = results[slot[i]]
		}
		caseA, _ := det.db.CaseNumber(p.A)
		caseB, _ := det.db.CaseNumber(p.B)
		matches[i] = Match{CaseA: caseA, CaseB: caseB, Score: res.Score, Duplicate: res.Label > 0, Pruned: res.Pruned}
	}
	slices.SortFunc(matches, func(a, b Match) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		if c := strings.Compare(a.CaseA, b.CaseA); c != 0 {
			return c
		}
		return strings.Compare(a.CaseB, b.CaseB)
	})
	for key, s := range pending {
		table[key] = results[s]
	}
	return matches, len(vecs), records
}

// TestDetectClassifiesDistinctVectorsOnce pins the distinct pass. DetectAll
// must equal, scores bit for bit, a reference that classifies every candidate
// pair; and the classifier must be sent each distinct vector once. The second
// half is read from the engine's committed records: Detect commits exactly
// what the reference commits when it classifies the distinct vectors, and
// fewer than when it classifies every pair, so a Detect without the pass
// fails. In every candidateSetups setup.
func TestDetectClassifiesDistinctVectorsOnce(t *testing.T) {
	for _, tc := range candidateSetups() {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCorpus()
			build := func() (*Detector, []adr.Report) {
				det, batch := loadCorpus(t, c, tc.opts, 20)
				trainOnGroundTruth(t, c, det, 2000)
				return det, batch
			}
			det, batch := build()
			before := det.Metrics().RecordsProcessed
			got, err := det.DetectAll(batch)
			if err != nil {
				t.Fatal(err)
			}
			records := det.Metrics().RecordsProcessed - before

			refDet, refBatch := build()
			want, pairs, everyRecords := referenceDetect(t, refDet, refBatch, nil)
			pruned := checkBitExact(t, got, want)

			distDet, distBatch := build()
			_, distinct, distinctRecords := referenceDetect(t, distDet, distBatch, refTable{})
			if distinct >= pairs {
				t.Fatalf("%d pairs carry %d distinct vectors; the test is vacuous", pairs, distinct)
			}
			if records != distinctRecords || records >= everyRecords {
				t.Fatalf("DetectAll committed %d records; classifying the %d distinct vectors commits %d, all %d pairs %d",
					records, distinct, distinctRecords, pairs, everyRecords)
			}
			if want := (detectShape{pairs: pairs, distinct: distinct, classified: distinct}); det.shape != want {
				t.Fatalf("shape %+v, want %+v", det.shape, want)
			}
			checkSetupFired(t, tc.opts, det, pruned)
			t.Logf("%d pairs, %d distinct vectors, %d pruned", pairs, distinct, pruned)
		})
	}
}

// scoringSetup is one configuration the scoring tests run under.
type scoringSetup struct {
	name string
	opts Options
}

// scoringSetups are testOptions clean, with §4.3.4 pruning, under task
// failures with speculation racing stragglers, and with executor memory small
// enough that blocks spill to disk.
func scoringSetups() []scoringSetup {
	pruning := testOptions()
	pruning.Classifier.Pruning = &core.PruningConfig{Clusters: 4, FTheta: 0.25}
	faulty := testOptions()
	faulty.Cluster = cluster.Config{
		Executors: 4, CoresPerExecutor: 2, FailureRate: 0.3, MaxTaskRetries: 40, Seed: 9,
		Speculation: true, SpeculationQuantile: 0.5, SpeculationMinRuntimeMS: -1,
		StragglerRate: 0.1, StragglerRealDelayMS: 1,
	}
	spill := testOptions()
	spill.Cluster.MemoryPerExecutorBytes = 16 << 10
	spill.Cluster.SpillToDisk = true
	return []scoringSetup{{"clean", testOptions()}, {"pruning", pruning}, {"failures+speculation", faulty}, {"spill", spill}}
}

// candidateSetups are scoringSetups and prefix-index candidates, whose probe
// tasks vectorize and look up the pairs they find. (Only the tests that do
// not expect every Eq. 3 pair run it.)
func candidateSetups() []scoringSetup {
	prefix := testOptions()
	prefix.Candidates, prefix.CandidateTheta = CandidatePrefixIndex, 0.3
	return append(scoringSetups(), scoringSetup{"prefix-index", prefix})
}

// TestPrefixIndexCommittedCountersUnderExecutorLoss pins executor loss on the
// prefix-index path: a detector whose executors are killed at stage
// submissions trains and runs three consecutive DetectAll batches, and each
// must return, scores bit for bit, what a clean detector with the same
// executor count returns, with the same committed records, comparisons and
// shuffle writes after every batch. The probe stage runs one task per
// configured slot, so the clean run keeps the executor count: its records
// differ between 6 and 8 executors, not between a clean and a faulty run.
func TestPrefixIndexCommittedCountersUnderExecutorLoss(t *testing.T) {
	c := newTestCorpus()
	opts := func(killRate float64) Options {
		o := testOptions()
		o.Candidates, o.CandidateTheta = CandidatePrefixIndex, 0.3
		o.Classifier.C = 0 // as adrdedup detect: the probe runs one task per slot
		o.Cluster.Executors = 6
		o.Cluster.ExecutorFailureRate = killRate
		o.Cluster.MaxStageRetries = 12
		o.Cluster.Seed = 7
		return o
	}
	build := func(killRate float64) (*Detector, []adr.Report) {
		det, batch := loadCorpus(t, c, opts(killRate), 60)
		trainOnGroundTruth(t, c, det, 2000)
		return det, batch
	}
	faulty, batch := build(0.25)
	clean, _ := build(0)
	for call := 0; call < 3; call++ {
		chunk := batch[call*20 : (call+1)*20] // more reports than slots
		got, err := faulty.DetectAll(chunk)
		if err != nil {
			t.Fatal(err)
		}
		want, err := clean.DetectAll(chunk)
		if err != nil {
			t.Fatal(err)
		}
		checkBitExact(t, got, want)
		f, w := faulty.Metrics(), clean.Metrics()
		if f.RecordsProcessed != w.RecordsProcessed || f.Comparisons != w.Comparisons ||
			f.ShuffleRecordsWritten != w.ShuffleRecordsWritten || f.ShuffleBytesWritten != w.ShuffleBytesWritten {
			t.Fatalf("call %d: committed work under executor loss (records %d, comparisons %d, shuffle %d records %d B) differs from the clean run (%d, %d, %d, %d B)",
				call, f.RecordsProcessed, f.Comparisons, f.ShuffleRecordsWritten, f.ShuffleBytesWritten,
				w.RecordsProcessed, w.Comparisons, w.ShuffleRecordsWritten, w.ShuffleBytesWritten)
		}
	}
	if m := faulty.Metrics(); m.ExecutorFailures == 0 || m.RecomputedTasks == 0 {
		t.Fatalf("%d executors lost, %d tasks recomputed; the test is vacuous", m.ExecutorFailures, m.RecomputedTasks)
	}
}

// checkBitExact requires got to equal want match for match, scores compared
// bit for bit, and returns how many of the matches are pruned.
func checkBitExact(t *testing.T, got, want []Match) (pruned int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("DetectAll returned %d matches, the reference %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.CaseA != w.CaseA || g.CaseB != w.CaseB || math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			g.Duplicate != w.Duplicate || g.Pruned != w.Pruned {
			t.Fatalf("match %d: DetectAll %+v, reference %+v", i, g, w)
		}
		if g.Pruned {
			pruned++
		}
	}
	return pruned
}

// checkSetupFired fails a pruning setup that pruned nothing, a faulty one
// whose faults did not fire and a spilling one that spilled nothing.
func checkSetupFired(t *testing.T, opts Options, det *Detector, pruned int) {
	t.Helper()
	if opts.Classifier.Pruning != nil && pruned == 0 {
		t.Fatal("no pair pruned; the pruning case is vacuous")
	}
	m := det.Metrics()
	if opts.Cluster.FailureRate > 0 && (m.TaskFailures == 0 || m.SpeculativeTasksLaunched == 0) {
		t.Fatalf("faults did not fire: %d task failures, %d speculative tasks", m.TaskFailures, m.SpeculativeTasksLaunched)
	}
	if opts.Cluster.SpillToDisk && m.SpillEvents == 0 {
		t.Fatal("nothing spilled; the spill case is vacuous")
	}
}

// TestDetectScoresEachVectorOncePerModel pins the score table across calls.
// One detector runs four consecutive DetectAll batches; each must equal,
// scores bit for bit, a reference that classifies every pair. The engine's
// committed records show what Classify was sent: every call commits exactly
// what a reference commits when it classifies only the vectors its model has
// not scored yet, and from the second call on fewer than one that classifies
// the call's distinct vectors, so a table that forgets between calls fails.
// In every candidateSetups setup.
func TestDetectScoresEachVectorOncePerModel(t *testing.T) {
	for _, tc := range candidateSetups() {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCorpus()
			build := func() (*Detector, []adr.Report) {
				det, batch := loadCorpus(t, c, tc.opts, 20)
				trainOnGroundTruth(t, c, det, 2000)
				return det, batch
			}
			det, batch := build()
			everyDet, _ := build()
			distDet, _ := build()
			memoDet, _ := build()
			memo := refTable{}
			pruned := 0
			for call := 0; call < 4; call++ {
				chunk := batch[call*5 : (call+1)*5]
				before := det.Metrics().RecordsProcessed
				got, err := det.DetectAll(chunk)
				if err != nil {
					t.Fatal(err)
				}
				records := det.Metrics().RecordsProcessed - before

				want, pairs, _ := referenceDetect(t, everyDet, chunk, nil)
				pruned += checkBitExact(t, got, want)
				_, distinct, distinctRecords := referenceDetect(t, distDet, chunk, refTable{})
				_, fresh, freshRecords := referenceDetect(t, memoDet, chunk, memo)
				if want := (detectShape{pairs: pairs, distinct: distinct, classified: fresh}); det.shape != want {
					t.Fatalf("call %d: shape %+v, want %+v", call, det.shape, want)
				}
				if records != freshRecords {
					t.Fatalf("call %d: DetectAll committed %d records; classifying the %d vectors the model has not scored commits %d",
						call, records, fresh, freshRecords)
				}
				if call > 0 && (fresh >= distinct || records >= distinctRecords) {
					t.Fatalf("call %d: %d new of %d distinct vectors; DetectAll committed %d records, classifying the distinct ones %d",
						call, fresh, distinct, records, distinctRecords)
				}
				t.Logf("call %d: %d pairs, %d distinct vectors, %d new", call, pairs, distinct, fresh)
			}
			if len(det.model.rows) != len(memo) {
				t.Fatalf("score table holds %d rows, the reference %d", len(det.model.rows), len(memo))
			}
			checkSetupFired(t, tc.opts, det, pruned)
		})
	}
}

// TestScoreTableFollowsModel: a detector that scored a batch under model A
// and then retrains must return for the next batch exactly what a fresh
// detector holding only the new model returns. The new model is trained on
// A's labelled pairs with every label flipped, so a verdict of A's read back
// from a stale table would show. A retrain that fails keeps model A and its
// table: the next batch is what a detector that never tried returns, for
// the same Classify work.
func TestScoreTableFollowsModel(t *testing.T) {
	c := newTestCorpus()
	det, batch := loadCorpus(t, c, testOptions(), 20)
	labelsA := groundTruthPairs(c, det, 2000)
	labelsB := slices.Clone(labelsA)
	for i := range labelsB {
		labelsB[i].Duplicate = !labelsB[i].Duplicate
	}
	first, second := batch[:10], batch[10:]

	// scoredUnderA returns a detector that has trained model A and detected
	// the first batch.
	scoredUnderA := func() *Detector {
		det, _ := loadCorpus(t, c, testOptions(), 20)
		if err := det.TrainFromLabeledCases(labelsA); err != nil {
			t.Fatal(err)
		}
		if _, err := det.DetectAll(first); err != nil {
			t.Fatal(err)
		}
		return det
	}
	detectSecond := func(det *Detector) []Match {
		m, err := det.DetectAll(second)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	keptA := scoredUnderA()
	stayedA := detectSecond(keptA)
	t.Run("retrain", func(t *testing.T) {
		det := scoredUnderA()
		if err := det.TrainFromLabeledCases(labelsB); err != nil {
			t.Fatal(err)
		}
		got := detectSecond(det)
		if det.shape.classified != det.shape.distinct {
			t.Fatalf("after retraining Classify was sent %d of %d distinct vectors, want all", det.shape.classified, det.shape.distinct)
		}
		// A detector whose database already holds the first batch and that
		// has never held any model but B.
		onlyB, _ := loadCorpus(t, c, testOptions(), 20)
		if err := onlyB.AddKnownReports(first); err != nil {
			t.Fatal(err)
		}
		if err := onlyB.TrainFromLabeledCases(labelsB); err != nil {
			t.Fatal(err)
		}
		want := detectSecond(onlyB)
		if reflect.DeepEqual(want, stayedA) {
			t.Fatal("models A and B agree on the second batch; the test is vacuous")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after retraining: %d matches differ from a detector holding only the new model (%d matches)", len(got), len(want))
		}
	})
	t.Run("failed retrain", func(t *testing.T) {
		det := scoredUnderA()
		failCall(t, det, "extract", func() error { return det.TrainFromLabeledCases(labelsB) })
		got := detectSecond(det)
		if !reflect.DeepEqual(got, stayedA) {
			t.Fatalf("after a failed retrain: %d matches differ from a detector that kept model A (%d matches)", len(got), len(stayedA))
		}
		if det.shape != keptA.shape {
			t.Fatalf("after a failed retrain Detect had shape %+v, a detector that kept model A %+v", det.shape, keptA.shape)
		}
		if det.shape.classified == det.shape.distinct {
			t.Fatalf("Classify was sent all %d distinct vectors: model A's table served none, so the test cannot tell a kept table from a dropped one", det.shape.distinct)
		}
	})
}

// TestDistinctVectorsKeepsOneUlpApart pins the score table's key and slots:
// vectors merge only when every coordinate has the same bits. One ulp apart,
// or +0 against -0, they stay separate; equal vectors in separate slices
// share a slot. A second call reads the vectors it repeats from the table,
// classifies only the new one, and every slot holds its vector's verdict.
func TestDistinctVectorsKeepsOneUlpApart(t *testing.T) {
	cl := cluster.New(cluster.Config{Executors: 2})
	defer cl.Close()
	train := make([]core.TrainingPair, 12)
	for i := range train {
		v := make([]float64, pairdist.Dims)
		v[i%pairdist.Dims] = float64(i+1) / 12
		train[i] = core.TrainingPair{Vec: v, Label: 1 - 2*(i%2)}
	}
	clf, err := core.Train(rdd.NewContext(cl), train, core.Config{K: 3, B: 2, C: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	classify := func(vecs ...[]float64) []verdict {
		results, _, err := clf.Classify(vecs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]verdict, len(results))
		for i, r := range results {
			out[i] = verdict{Score: r.Score, Label: r.Label, Pruned: r.Pruned}
		}
		return out
	}
	m := newModel(clf)
	score := func(wantSlots []int32, wantClassified int, want []verdict, vecs ...[]float64) {
		t.Helper()
		recs := make([]pairdist.PairRecord, len(vecs))
		for i, v := range vecs {
			recs[i].Vec = v
		}
		slot, verdicts, classified, err := m.score(recs)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(slot, wantSlots) || classified != wantClassified {
			t.Fatalf("slots %v with %d classified, want %v with %d", slot, classified, wantSlots, wantClassified)
		}
		if !slices.Equal(verdicts, want) {
			t.Fatalf("verdicts %v, want %v", verdicts, want)
		}
	}

	base := []float64{0, 1, 0, 1, 0.5, 1.0 / 3, 0.75}
	ulp := slices.Clone(base)
	ulp[pairdist.FieldDescription] = math.Nextafter(base[pairdist.FieldDescription], 1)
	negZero := slices.Clone(base)
	negZero[pairdist.FieldAge] = math.Copysign(0, -1)
	fresh := slices.Clone(base)
	fresh[pairdist.FieldDrugName] = 0.25
	first := classify(base, ulp, negZero)
	score([]int32{0, 1, 0, 2, 1}, 3, first, base, ulp, slices.Clone(base), negZero, slices.Clone(ulp))
	score([]int32{0, 2, 1, 2}, 1, append([]verdict{first[2], first[0]}, classify(fresh)...),
		negZero, fresh, base, slices.Clone(fresh))
	if len(m.rows) != 4 {
		t.Fatalf("score table holds %d rows, want 4", len(m.rows))
	}
}

// TestCandidatePrefixIndexKeepsDuplicatesCutsPairs runs the full pipeline
// under the prefix-filtered candidate generator: far fewer pairs are scored
// than exhaustively, and every ground-truth duplicate the exhaustive run
// flags survives (duplicate reports re-describe the same drugs, reactions,
// and narrative, so their signature overlap clears the threshold).
func TestCandidatePrefixIndexKeepsDuplicatesCutsPairs(t *testing.T) {
	c := adrgen.Generate(adrgen.Config{
		NumReports: 500, DuplicatePairs: 40, NumDrugs: 80, NumADRs: 120, Seed: 42,
	})
	build := func(strategy CandidateStrategy) (*Detector, []adr.Report) {
		det, err := New(Options{
			Cluster:        cluster.Config{Executors: 4},
			Classifier:     core.Config{K: 7, B: 8, C: 4, Seed: 1},
			Candidates:     strategy,
			CandidateTheta: 0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		cut := len(c.Reports) - 20
		existing := make([]adr.Report, cut)
		copy(existing, c.Reports[:cut])
		batch := make([]adr.Report, 20)
		copy(batch, c.Reports[cut:])
		if err := det.AddKnownReports(existing); err != nil {
			t.Fatal(err)
		}
		trainOnGroundTruth(t, c, det, 1000)
		return det, batch
	}

	detFull, batch := build(CandidateBruteForce)
	full, err := detFull.DetectAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	detPrefix, batch2 := build(CandidatePrefixIndex)
	prefixed, err := detPrefix.DetectAll(batch2)
	if err != nil {
		t.Fatal(err)
	}
	if len(prefixed) == 0 {
		t.Fatal("prefix-index run scored no pairs")
	}
	if len(prefixed)*2 >= len(full) {
		t.Errorf("prefix index scored %d pairs vs exhaustive %d; expected far fewer", len(prefixed), len(full))
	}
	flagged := make(map[[2]string]bool)
	for _, m := range Duplicates(prefixed) {
		flagged[[2]string{m.CaseA, m.CaseB}] = true
		flagged[[2]string{m.CaseB, m.CaseA}] = true
	}
	for _, m := range Duplicates(full) {
		a, _ := detFull.Database().Get(m.CaseA)
		b, _ := detFull.Database().Get(m.CaseB)
		if !c.IsDuplicatePair(a.ArrivalSeq, b.ArrivalSeq) {
			continue
		}
		if !flagged[[2]string{m.CaseA, m.CaseB}] {
			t.Errorf("prefix index lost true duplicate %s/%s", m.CaseA, m.CaseB)
		}
	}
}

// prefixTestTheta keeps candidate volume meaningful on the 500-report test
// corpus: a few hundred scored pairs per 20-report batch, every injected
// duplicate among them.
const prefixTestTheta = 0.25

// prefixTestDetector builds a CandidatePrefixIndex detector over the shared
// test corpus, pre-loaded with all but the last `holdout` reports and trained
// on ground truth — the fixture for the incremental-index tests below.
func prefixTestDetector(t *testing.T, holdout int) (*adrgen.Corpus, *Detector, []adr.Report) {
	t.Helper()
	c := adrgen.Generate(adrgen.Config{
		NumReports: 500, DuplicatePairs: 40, NumDrugs: 80, NumADRs: 120, Seed: 42,
	})
	det, err := New(Options{
		Cluster:        cluster.Config{Executors: 4, CoresPerExecutor: 2},
		Classifier:     core.Config{K: 7, B: 8, C: 4, Theta: 0, Seed: 1},
		Candidates:     CandidatePrefixIndex,
		CandidateTheta: prefixTestTheta,
	})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(c.Reports) - holdout
	existing := make([]adr.Report, cut)
	copy(existing, c.Reports[:cut])
	batch := make([]adr.Report, holdout)
	copy(batch, c.Reports[cut:])
	if err := det.AddKnownReports(existing); err != nil {
		t.Fatal(err)
	}
	trainOnGroundTruth(t, c, det, 2000)
	return c, det, batch
}

// checkIndexCoversFeats asserts the persistent index holds exactly the
// detector's features and that probing it from `from` emits what Pairs emits
// over the same signatures — the incrementally maintained index against one
// built by a single whole-corpus Append.
func checkIndexCoversFeats(t *testing.T, d *Detector, from int) {
	t.Helper()
	if got, want := d.index.Len(), len(d.feats); got != want {
		t.Fatalf("index covers %d records, detector has %d features", got, want)
	}
	sigs, err := candgen.Signatures(d.feats)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := candgen.Pairs(d.ctx, sigs, candgen.Params{Theta: prefixTestTheta, MinArrival: from})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := d.index.Probe(d.ctx, from, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("persistent index emits %d pairs from %d, a whole-corpus Append %d", len(got), from, len(want))
	}
	if len(got) == 0 {
		t.Fatal("no candidate pairs; comparison would be vacuous")
	}
}

func sortCasePairs(matches []Match) {
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].CaseA != matches[j].CaseA {
			return matches[i].CaseA < matches[j].CaseA
		}
		return matches[i].CaseB < matches[j].CaseB
	})
}

// TestPrefixIndexIncrementalEqualsOneShot pins the persistent candidate index
// across Detect calls: detecting a stream in several batches must score the
// identical match set as one Detect over the whole stream, and the
// incrementally-extended index must emit what a from-scratch generator does.
// This is what lets a long-lived ingest service (internal/serve) append
// postings per arrival instead of re-indexing the database every batch.
func TestPrefixIndexIncrementalEqualsOneShot(t *testing.T) {
	_, detInc, batch := prefixTestDetector(t, 30)
	seeded := detInc.index.Len()
	if seeded != 470 {
		t.Fatalf("AddKnownReports indexed %d of 470 seed reports", seeded)
	}
	var union []Match
	for _, chunk := range [][]adr.Report{batch[:7], batch[7:8], batch[8:20], batch[20:]} {
		m, err := detInc.DetectAll(chunk)
		if err != nil {
			t.Fatal(err)
		}
		union = append(union, m...)
	}
	checkIndexCoversFeats(t, detInc, seeded)

	_, detOne, batch2 := prefixTestDetector(t, 30)
	oneShot, err := detOne.DetectAll(batch2)
	if err != nil {
		t.Fatal(err)
	}

	sortCasePairs(union)
	sortCasePairs(oneShot)
	if !reflect.DeepEqual(union, oneShot) {
		t.Fatalf("incremental union (%d matches) differs from one-shot Detect (%d matches)",
			len(union), len(oneShot))
	}
	if len(Duplicates(union)) == 0 {
		t.Fatal("no duplicates found; equivalence test would be vacuous")
	}
}

// failDetect makes the next Detect fail at one of its failure positions, runs
// it, and restores the detector's parts. "extract" swaps in an engine whose
// tasks always fail, so the batch has reached the database but neither feats
// nor the index; "classify" swaps in a model trained on 5-dimensional
// vectors, which rejects the 7-dimensional pair vectors after features and
// postings were appended and the index probed; "classify-engine" keeps the
// detector's model, score table included, but rebinds its classifier to one
// trained on an engine that is closed once training is done (training runs
// stages, which an always-failing engine would fail), so Classify fails on
// the vectors the table misses.
func failDetect(t *testing.T, det *Detector, position string, batch []adr.Report) {
	t.Helper()
	failCall(t, det, position, func() error {
		_, err := det.Detect(batch)
		return err
	})
}

// failCall is failDetect for any call that detects on det: call must fail at
// the position.
func failCall(t *testing.T, det *Detector, position string, call func() error) {
	t.Helper()
	restore := injectFailure(t, det, position)
	defer restore()
	if err := call(); err == nil {
		t.Fatalf("expected the call to fail at %s", position)
	}
}

// injectFailure swaps in the part that makes det's next call fail at position
// (see failDetect) and returns what puts det's own parts back.
func injectFailure(t *testing.T, det *Detector, position string) (restore func()) {
	t.Helper()
	// bogus is a training set of dim-dimensional vectors, both labels.
	bogus := func(dim int) []core.TrainingPair {
		pairs := make([]core.TrainingPair, 8)
		for i := range pairs {
			v := make([]float64, dim)
			v[i%dim] = float64(i + 1)
			pairs[i] = core.TrainingPair{Vec: v, Label: 1 - 2*(i%2)}
		}
		return pairs
	}
	switch position {
	case "extract":
		badCl := cluster.New(cluster.Config{Executors: 2, FailureRate: 1, MaxTaskRetries: 1, Seed: 5})
		goodCl, goodCtx := det.cl, det.ctx
		det.cl, det.ctx = badCl, rdd.NewContext(badCl)
		return func() {
			det.cl, det.ctx = goodCl, goodCtx
			badCl.Close()
		}
	case "classify":
		badClf, err := core.Train(det.ctx, bogus(5), core.Config{K: 1, B: 2, C: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		good := det.model
		det.model = newModel(badClf)
		return func() { det.model = good }
	case "classify-engine":
		closedCl := cluster.New(cluster.Config{Executors: 2, MaxTaskRetries: 1})
		sick, err := core.Train(rdd.NewContext(closedCl), bogus(pairdist.Dims), core.Config{K: 1, B: 2, C: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		closedCl.Close()
		rows := len(det.model.rows)
		goodClf := det.model.clf
		det.model.clf = sick
		return func() {
			det.model.clf = goodClf
			if got := len(det.model.rows); got != rows {
				t.Fatalf("a failed Classify grew the score table from %d to %d rows", rows, got)
			}
		}
	}
	t.Fatalf("unknown failure position %q", position)
	return nil
}

// TestAddKnownReportsRollsBackOnFailure: an AddKnownReports whose feature
// extraction fails must leave the database, the features and the index as
// they were — reports left in the database without features made the same
// call fail on its own case numbers — so that the call succeeds once the
// engine is healthy and the next Detect returns what a detector that never
// failed returns.
func TestAddKnownReportsRollsBackOnFailure(t *testing.T) {
	_, det, batch := prefixTestDetector(t, 20)
	known, fresh := batch[:10], batch[10:]
	dbLen, nFeats, indexed := det.db.Len(), len(det.feats), det.index.Len()
	failCall(t, det, "extract", func() error { return det.AddKnownReports(known) })
	if det.db.Len() != dbLen || len(det.feats) != nFeats || det.index.Len() != indexed {
		t.Fatalf("failed AddKnownReports left %d reports, %d features, %d indexed; want %d, %d, %d",
			det.db.Len(), len(det.feats), det.index.Len(), dbLen, nFeats, indexed)
	}
	if err := det.AddKnownReports(known); err != nil {
		t.Fatalf("retrying AddKnownReports after a failed one: %v", err)
	}
	got, err := det.Detect(fresh)
	if err != nil {
		t.Fatal(err)
	}

	_, clean, batch := prefixTestDetector(t, 20)
	if err := clean.AddKnownReports(batch[:10]); err != nil {
		t.Fatal(err)
	}
	want, err := clean.Detect(batch[10:])
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("never-failed Detect returned no matches; comparison would be vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Detect after the retried AddKnownReports returned %d matches, a never-failed detector %d", len(got), len(want))
	}
}

// TestPrefixIndexRollsBackOnFailedDetect: a Detect failing at any failure
// position must leave the database, the features and the index exactly as
// long as they were — a batch's postings left behind would pair every later
// batch against reports that are no longer in the database — and the retried
// batch, and the batches after it, must return what a detector that never
// failed returns.
func TestPrefixIndexRollsBackOnFailedDetect(t *testing.T) {
	_, clean, batch := prefixTestDetector(t, 20)
	chunks := [][]adr.Report{batch[:5], batch[5:15], batch[15:]}
	var want [][]Match
	for _, chunk := range chunks {
		m, err := clean.Detect(chunk)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, m)
	}
	if len(want[1]) == 0 {
		t.Fatal("clean run returned no matches for the batch under test; comparison would be vacuous")
	}

	for _, position := range []string{"extract", "classify", "classify-engine"} {
		_, det, batch := prefixTestDetector(t, 20)
		chunks := [][]adr.Report{batch[:5], batch[5:15], batch[15:]}
		// Warm the index past the seed database.
		if _, err := det.Detect(chunks[0]); err != nil {
			t.Fatal(err)
		}
		dbLen, nFeats, indexed := det.db.Len(), len(det.feats), det.index.Len()

		failDetect(t, det, position, chunks[1])
		if got := det.db.Len(); got != dbLen {
			t.Fatalf("%s: failed Detect left the database at %d reports, want %d", position, got, dbLen)
		}
		if got := len(det.feats); got != nFeats {
			t.Fatalf("%s: failed Detect left %d features, want %d", position, got, nFeats)
		}
		if got := det.index.Len(); got != indexed {
			t.Fatalf("%s: failed Detect left %d indexed records, want %d", position, got, indexed)
		}

		// The failed batch retried, then the rest: all postings land once.
		for i, chunk := range chunks[1:] {
			got, err := det.Detect(chunk)
			if err != nil {
				t.Fatalf("%s: Detect after the failed one: %v", position, err)
			}
			if !reflect.DeepEqual(got, want[i+1]) {
				t.Fatalf("%s: batch %d after rollback returned %d matches, the never-failed detector %d",
					position, i+1, len(got), len(want[i+1]))
			}
		}
		checkIndexCoversFeats(t, det, 480)
	}
}

// batchStep is one call of a batchScript: call ("add" for AddKnownReports,
// "detect" or "dups" for DetectDuplicates) on the next size reports,
// failed at failCall's position unless that is empty, and then, if it did
// fail, either sent again at once (retry) or dropped.
type batchStep struct {
	call, position string
	size           int
	retry          bool
}

// batchScript is TestBatchAbortsLeaveNoTrace's input: 3–6 steps of at most 5
// reports, half of them failed, so a script never outruns 30 held-out reports.
type batchScript []batchStep

func (batchScript) Generate(r *rand.Rand, _ int) reflect.Value {
	s := make(batchScript, 3+r.Intn(4))
	for i := range s {
		st := batchStep{call: []string{"add", "detect", "dups"}[r.Intn(3)], size: 1 + r.Intn(5), retry: r.Intn(2) == 0}
		switch {
		case r.Intn(2) == 0:
		case st.call == "add": // extraction is the only engine work it does
			st.position = "extract"
		default:
			st.position = []string{"extract", "classify", "classify-engine"}[r.Intn(3)]
		}
		s[i] = st
	}
	return reflect.ValueOf(s)
}

// batchState is what a batch may change in a detector, the engine's
// registered shuffles included.
type batchState struct {
	reports, feats, shipped, indexed, rows, shuffles int
	shape                                            detectShape
}

func stateOf(d *Detector) batchState {
	return batchState{
		reports: d.db.Len(), feats: len(d.feats), shipped: d.shipped, indexed: d.index.Len(),
		rows: len(d.model.rows), shuffles: d.ctx.Cluster().Shuffles().Registered(), shape: d.shape,
	}
}

// TestBatchAbortsLeaveNoTrace is the property test of the batch transaction
// (batchMark). Random scripts of AddKnownReports, Detect and DetectDuplicates
// calls run on a prefix-index detector, some failed at one of failCall's
// positions and then retried at once or dropped. Every abort must leave the
// database, the features, the index, the score table, the last shape and the
// registered shuffles as the call found them, the index must still cover
// exactly the features, and shipped must follow the abort's rule: unchanged
// when the call failed before scoring, else cut back to the call's first
// feature, which the failed scoring broadcast. Every call that succeeds must
// return the results, the shape and the committed records and comparisons of
// a detector that never failed and received only the successful batches, so
// nothing an abort leaves behind by design (the interner's IDs for the
// aborted batch's tokens) changes a result.
func TestBatchAbortsLeaveNoTrace(t *testing.T) {
	aborts := make(map[string]int)
	retried, dropped, compared := 0, 0, 0
	prop := func(script batchScript) bool {
		_, det, held := prefixTestDetector(t, 30)
		_, clean, _ := prefixTestDetector(t, 30)
		defer det.Engine().Cluster().Close()
		defer clean.Engine().Cluster().Close()
		call := func(d *Detector, kind string, batch []adr.Report) (any, error) {
			switch kind {
			case "add":
				return nil, d.AddKnownReports(batch)
			case "detect":
				return d.Detect(batch)
			}
			dups, scored, err := d.DetectDuplicates(batch)
			return []any{dups, scored}, err
		}
		// succeeded replays a call det completed on clean and compares them.
		succeeded := func(i int, kind string, batch []adr.Report, got any, before cluster.MetricsSnapshot) {
			t.Helper()
			after, cleanBefore := det.Metrics(), clean.Metrics()
			want, err := call(clean, kind, batch)
			if err != nil {
				t.Fatalf("%v step %d: the never-failed detector: %v", script, i, err)
			}
			cleanAfter := clean.Metrics()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v step %d: %s returned %v, the never-failed detector %v", script, i, kind, got, want)
			}
			if det.shape != clean.shape {
				t.Fatalf("%v step %d: shape %+v, the never-failed detector %+v", script, i, det.shape, clean.shape)
			}
			if g, w := after.RecordsProcessed-before.RecordsProcessed, cleanAfter.RecordsProcessed-cleanBefore.RecordsProcessed; g != w {
				t.Fatalf("%v step %d: committed %d records, the never-failed detector %d", script, i, g, w)
			}
			if g, w := after.Comparisons-before.Comparisons, cleanAfter.Comparisons-cleanBefore.Comparisons; g != w {
				t.Fatalf("%v step %d: committed %d comparisons, the never-failed detector %d", script, i, g, w)
			}
			if kind != "add" {
				compared++
			}
		}
		next := 0
		for i, st := range script {
			batch := held[next : next+st.size]
			next += st.size
			if st.position != "" {
				restore := injectFailure(t, det, st.position)
				pre, before := stateOf(det), det.Metrics()
				got, err := call(det, st.call, batch)
				if err == nil { // it had nothing for the failing part to do
					restore()
					succeeded(i, st.call, batch, got, before)
					continue
				}
				aborts[st.position]++
				want := pre
				if st.position != "extract" {
					want.shipped = pre.feats
				}
				if post := stateOf(det); post != want {
					t.Fatalf("%v step %d: the abort left %+v, want %+v", script, i, post, want)
				}
				restore()
				checkIndexCoversFeats(t, det, 0)
				if !st.retry {
					dropped++
					continue
				}
				retried++
			}
			before := det.Metrics()
			got, err := call(det, st.call, batch)
			if err != nil {
				t.Fatalf("%v step %d: %v", script, i, err)
			}
			succeeded(i, st.call, batch, got, before)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("aborts %v, %d retried, %d dropped, %d detecting calls compared", aborts, retried, dropped, compared)
	for _, position := range []string{"extract", "classify", "classify-engine"} {
		if aborts[position] == 0 {
			t.Errorf("no call aborted at %s; the scripts do not cover it", position)
		}
	}
	if retried == 0 || dropped == 0 || compared == 0 {
		t.Error("the scripts never retried, dropped or compared a detecting call")
	}
}

// TestDetectReleasesShuffleState pins the serving-layer memory contract: a
// Detect call releases its own shuffle map outputs on exit, so a long-lived
// detector (the online service) stays flat across an unbounded stream of
// batches instead of retaining every batch's shuffles for the cluster's
// lifetime. Training-era shuffles are left alone.
func TestDetectReleasesShuffleState(t *testing.T) {
	_, det, batch := prefixTestDetector(t, 20)
	shuffles := det.Engine().Cluster().Shuffles()
	before := shuffles.Registered()
	mark := shuffles.Mark()
	for i := 0; i < 4; i++ {
		lo, hi := i*5, (i+1)*5
		if _, err := det.Detect(batch[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if shuffles.Mark() == mark {
		t.Fatal("Detect registered no shuffles; test is vacuous")
	}
	if got := shuffles.Registered(); got != before {
		t.Fatalf("registered shuffles grew from %d to %d across 4 Detects; per-batch state leaked", before, got)
	}
}

// TestScoringBroadcastsEachFeatureOnce pins the scoring stage's broadcast to
// the features the executors do not hold yet. Detectors over 2,000 and 4,000
// reports take the same two batches: the first Detect ships every feature,
// and the second ships only its own batch's, so equal batches commit equal
// feature bytes and equal BroadcastBytes whatever the database size. A
// Detect that fails after scoring rolls its features back, and the retried
// batch ships them again.
func TestScoringBroadcastsEachFeatureOnce(t *testing.T) {
	const large, perBatch = 4000, 10
	c := adrgen.Generate(adrgen.Config{
		NumReports: large + 2*perBatch, DuplicatePairs: 160, NumDrugs: 80, NumADRs: 120, Seed: 42,
	})
	first, second := c.Reports[large:large+perBatch], c.Reports[large+perBatch:]
	// featureBytes returns the BroadcastBytes a Detect of batch commits, and
	// the bytes of its last broadcast, which is the features'.
	featureBytes := func(det *Detector, batch []adr.Report) (total, feats int64) {
		t.Helper()
		tracer := det.Engine().Cluster().Tracer()
		tracer.Reset()
		before := det.Metrics().BroadcastBytes
		if _, err := det.Detect(slices.Clone(batch)); err != nil {
			t.Fatal(err)
		}
		if det.shape.pairs == 0 {
			t.Fatal("the batch has no candidate pair, so nothing is scored or shipped")
		}
		for _, e := range tracer.Snapshot() {
			if e.Kind == cluster.EventBroadcast {
				feats = e.Bytes
			}
		}
		return det.Metrics().BroadcastBytes - before, feats
	}
	var totals []int64
	for _, size := range []int{large / 2, large} {
		det, err := New(Options{
			Cluster:        cluster.Config{Executors: 4, CoresPerExecutor: 2},
			Classifier:     core.Config{K: 7, B: 8, C: 4, Theta: 0, Seed: 1},
			Candidates:     CandidatePrefixIndex,
			CandidateTheta: prefixTestTheta,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := det.AddKnownReports(slices.Clone(c.Reports[:size])); err != nil {
			t.Fatal(err)
		}
		trainOnGroundTruth(t, c, det, 200)
		det.Engine().Cluster().Tracer().Enable()
		if _, feats := featureBytes(det, first); feats != int64(size+perBatch)*300 {
			t.Fatalf("%d reports: the first Detect shipped %d feature bytes, want all %d features'", size, feats, size+perBatch)
		}
		if size == large/2 {
			failDetect(t, det, "classify", slices.Clone(second))
		}
		total, feats := featureBytes(det, second)
		if feats != perBatch*300 {
			t.Fatalf("%d reports: the second Detect shipped %d feature bytes, want its %d features'", size, feats, perBatch)
		}
		totals = append(totals, total)
	}
	if totals[0] != totals[1] {
		t.Fatalf("equal batches committed %d broadcast bytes against %d reports and %d against %d", totals[0], large/2, totals[1], large)
	}
}

// TestDetectDuplicatesEqualsDetect pins DetectDuplicates to Detect. Two
// detectors with one history take the same consecutive batches, one through
// Detect and the other through DetectDuplicates: every call must return
// Duplicates(Detect) match for match and len(Detect) as scored, and leave the
// two with equal engine counters, detect shapes, score tables and databases.
// The second batch first fails in both, at the classifier, and must roll both
// back alike. In every scoringSetups setup.
func TestDetectDuplicatesEqualsDetect(t *testing.T) {
	for _, tc := range scoringSetups() {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCorpus()
			build := func() (*Detector, []adr.Report) {
				det, batch := loadCorpus(t, c, tc.opts, 20)
				trainOnGroundTruth(t, c, det, 2000)
				return det, batch
			}
			full, batch := build()
			dupsOnly, _ := build()
			same := func(when string) {
				t.Helper()
				// Faults and spills make the attempt, speculation and
				// block-store counters race; the work a run commits does not.
				g, w := dupsOnly.Metrics(), full.Metrics()
				if tc.opts.Cluster.FailureRate > 0 || tc.opts.Cluster.SpillToDisk {
					g, w = committedWork(g), committedWork(w)
				}
				if g != w {
					t.Fatalf("%s: DetectDuplicates left engine counters %+v, Detect %+v", when, g, w)
				}
				if g, w := dupsOnly.shape, full.shape; g != w {
					t.Fatalf("%s: DetectDuplicates left shape %+v, Detect %+v", when, g, w)
				}
				if g, w := len(dupsOnly.model.rows), len(full.model.rows); g != w {
					t.Fatalf("%s: DetectDuplicates left %d score-table rows, Detect %d", when, g, w)
				}
				if g, w := dupsOnly.db.Len(), full.db.Len(); g != w {
					t.Fatalf("%s: DetectDuplicates left %d reports, Detect %d", when, g, w)
				}
			}
			same("after training")
			found, pruned := 0, 0
			for i, chunk := range [][]adr.Report{batch[:6], batch[6:13], batch[13:]} {
				if i == 1 {
					failDetect(t, full, "classify", chunk)
					failCall(t, dupsOnly, "classify", func() error {
						_, _, err := dupsOnly.DetectDuplicates(chunk)
						return err
					})
					same("after a failed batch")
				}
				want, err := full.Detect(chunk)
				if err != nil {
					t.Fatal(err)
				}
				got, scored, err := dupsOnly.DetectDuplicates(chunk)
				if err != nil {
					t.Fatal(err)
				}
				if scored != len(want) {
					t.Fatalf("batch %d: DetectDuplicates scored %d pairs, Detect returned %d", i, scored, len(want))
				}
				if w := Duplicates(want); !reflect.DeepEqual(got, w) {
					t.Fatalf("batch %d: DetectDuplicates returned %d duplicates, Detect %d", i, len(got), len(w))
				}
				same(fmt.Sprintf("batch %d", i))
				found += len(got)
				pruned += full.shape.pairs - scored
			}
			if found == 0 {
				t.Fatal("no duplicates found; the comparison is vacuous")
			}
			if tc.opts.Classifier.Pruning != nil && pruned == 0 {
				t.Fatal("no pair pruned; scored is never tested against the pair count")
			}
		})
	}
}

// committedWork keeps the engine counters a run commits exactly once whatever
// its task failures, speculative races and spills: stages, records,
// comparisons, shuffle writes and broadcasts.
func committedWork(m cluster.MetricsSnapshot) cluster.MetricsSnapshot {
	return cluster.MetricsSnapshot{
		StagesRun: m.StagesRun, RecordsProcessed: m.RecordsProcessed, Comparisons: m.Comparisons,
		ShuffleBytesWritten: m.ShuffleBytesWritten, ShuffleRecordsWritten: m.ShuffleRecordsWritten,
		BroadcastBytes: m.BroadcastBytes,
	}
}

// TestClassifyRecomputesTrainingBlocksAfterRelease pins executor loss against
// the hash-partitioned training blocks. A detector whose executors are killed
// at stage submissions runs consecutive Detects, each releasing its own
// shuffles on exit, and then classifies its whole training set, which visits
// every Voronoi cell; every call must return what a detector that loses
// nothing returns. A kill drops the cached T-neg.blocks partitions its
// executor held, so Classify recomputes them from the training-era shuffle;
// had a release dropped that shuffle, the recomputed blocks would come back
// empty and the results would differ. The kill rate is low and blacklisting
// is off so that every stage keeps a live executor: a stage resubmitted with
// none runs its tasks on no host, and what they cache is never lost.
func TestClassifyRecomputesTrainingBlocksAfterRelease(t *testing.T) {
	c := newTestCorpus()
	faulty := testOptions()
	faulty.Cluster.ExecutorFailureRate = 0.1
	faulty.Cluster.MaxStageRetries = 12
	faulty.Cluster.BlacklistAfterFailures = 1000 // killed executors rejoin, so kills go on
	faulty.Cluster.Seed = 11
	det, batch := loadCorpus(t, c, faulty, 20)
	tracer := det.Engine().Cluster().Tracer()
	tracer.Enable()
	trainOnGroundTruth(t, c, det, 2000)
	// The partitions training cached with data in them: a hash-partitioned
	// cell can land in another cell's partition and leave its own empty.
	held := make(map[string]bool)
	for _, e := range tracer.Snapshot() {
		if e.Kind == cluster.EventBlockCached && e.Bytes > 0 {
			held[e.Detail] = true
		}
	}
	tracer.Reset()
	clean, _ := loadCorpus(t, c, testOptions(), 20)
	labelled := groundTruthPairs(c, clean, 2000)
	if err := clean.TrainFromLabeledCases(labelled); err != nil {
		t.Fatal(err)
	}

	found := 0
	for i := 0; i < 4; i++ {
		chunk := batch[i*5 : (i+1)*5]
		got, err := det.Detect(chunk)
		if err != nil {
			t.Fatal(err)
		}
		want, err := clean.Detect(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d under executor loss returned %d matches, the clean run %d", i, len(got), len(want))
		}
		found += len(got)
	}
	if found == 0 {
		t.Fatal("no matches; the comparison is vacuous")
	}

	tracer.Reset() // count what the releases leave behind
	ids := make([]pairdist.IDPair, len(labelled))
	for i, p := range labelled {
		a, _ := clean.db.Get(p.CaseA)
		b, _ := clean.db.Get(p.CaseB)
		ids[i] = pairdist.IDPair{A: a.ArrivalSeq, B: b.ArrivalSeq}
	}
	recs, err := pairdist.ComputeVectors(clean.ctx, clean.feats, ids, clean.classifierPartitions())
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([][]float64, len(recs))
	for i, r := range recs {
		vecs[i] = r.Vec
	}
	for round := 0; round < 4; round++ {
		got, _, err := det.model.clf.Classify(vecs)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := clean.model.clf.Classify(vecs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Classify under executor loss differs from the clean run", round)
		}
	}
	recomputed := 0
	for _, e := range tracer.Snapshot() {
		block, ok := strings.CutSuffix(e.Detail, " (T-neg.blocks)")
		if e.Kind == cluster.EventBlockRecompute && ok && held[block] {
			recomputed++
		}
	}
	if recomputed == 0 {
		t.Fatalf("no cached T-neg.blocks partition with training pairs recomputed (%d executors lost); the test is vacuous",
			det.Metrics().ExecutorFailures)
	}
	t.Logf("%d T-neg.blocks partitions recomputed, %d executors lost", recomputed, det.Metrics().ExecutorFailures)
}
