package adrdedup_test

import (
	"fmt"
	"log"
	"sort"

	"adrdedup"
	"adrdedup/internal/adr"
	"adrdedup/internal/adrgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
)

// Generate a small synthetic ADR corpus, train the Fast kNN duplicate
// classifier on expert labels, and detect duplicates in a batch of newly
// arrived reports.
func Example_quickstart() {
	// A synthetic corpus with known ground truth (the real TGA data is
	// proprietary): 1,500 reports, 60 injected duplicate pairs.
	corpus := adrgen.Generate(adrgen.Config{
		NumReports: 1500, DuplicatePairs: 60, NumDrugs: 300, NumADRs: 500, Seed: 7,
	})

	// A detector over a simulated 8-executor cluster. Theta is the Eq. 6
	// duplicate score threshold.
	det, err := adrdedup.New(adrdedup.Options{
		Cluster:    cluster.Config{Executors: 8},
		Classifier: core.Config{K: 9, B: 16, C: 4, Theta: 0},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The existing database is everything except the last 25 reports,
	// which play the part of a newly arrived batch.
	cut := len(corpus.Reports) - 25
	if err := det.AddKnownReports(withoutArrivalSeq(corpus.Reports[:cut])); err != nil {
		log.Fatal(err)
	}
	if err := det.TrainFromLabeledCases(expertLabels(corpus, det, 3000)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d labelled pairs\n", det.TrainingSize())

	// The batch is checked against the database and itself (Eq. 3), then
	// absorbed.
	matches, err := det.Detect(withoutArrivalSeq(corpus.Reports[cut:]))
	if err != nil {
		log.Fatal(err)
	}
	dups := adrdedup.Duplicates(matches)
	fmt.Printf("scored %d candidate pairs, flagged %d as duplicates\n", len(matches), len(dups))
	for _, m := range dups {
		fmt.Printf("  %s ~ %s  score %.2f  ground truth: %v\n", m.CaseA, m.CaseB, m.Score, isTrueDuplicate(corpus, m))
	}

	snap := det.Metrics()
	fmt.Printf("engine: %d stages, %d records, %d pair comparisons\n",
		snap.StagesRun, snap.RecordsProcessed, snap.Comparisons)
	// Output:
	// trained on 1989 labelled pairs
	// scored 37175 candidate pairs, flagged 2 as duplicates
	//   TGA-2013-000842 ~ TGA-2013-000293  score 76.00  ground truth: false
	//   TGA-2013-001453 ~ TGA-2013-001254  score 76.00  ground truth: true
	// engine: 10 stages, 46390 records, 39164 pair comparisons
}

// The paper's motivating scenario: a regulator's database receives report
// batches continuously; each batch is checked for duplicates against
// everything received so far (Eq. 3) and absorbed, and the officers'
// verdicts on the flagged pairs feed back into the labelled training data
// (the dashed line in the paper's Figure 1) before the classifier is
// retrained.
func Example_regulatorIntake() {
	corpus := adrgen.Generate(adrgen.Config{
		NumReports: 2000, DuplicatePairs: 80, NumDrugs: 400, NumADRs: 600, Seed: 11,
	})
	det, err := adrdedup.New(adrdedup.Options{
		Cluster:    cluster.Config{Executors: 12, CoresPerExecutor: 1},
		Classifier: core.Config{K: 9, B: 20, C: 4, Theta: 0},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Bootstrap: the first 1,200 reports are the historical database; its
	// duplicates were labelled by the regulator's officers.
	const bootstrap = 1200
	if err := det.AddKnownReports(withoutArrivalSeq(corpus.Reports[:bootstrap])); err != nil {
		log.Fatal(err)
	}
	training := expertLabels(corpus, det, 4000)
	if err := det.TrainFromLabeledCases(training); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bootstrap: %d reports, %d labelled pairs\n", det.Database().Len(), det.TrainingSize())

	// Intake: the remaining reports arrive in batches of 200 (roughly a
	// fortnight of TGA volume).
	const batchSize = 200
	totalFlagged, totalTrue := 0, 0
	for start := bootstrap; start < len(corpus.Reports); start += batchSize {
		end := min(start+batchSize, len(corpus.Reports))
		matches, err := det.Detect(withoutArrivalSeq(corpus.Reports[start:end]))
		if err != nil {
			log.Fatal(err)
		}
		flagged := adrdedup.Duplicates(matches)
		confirmed := 0
		for _, m := range flagged {
			dup := isTrueDuplicate(corpus, m)
			if dup {
				confirmed++
			}
			training = append(training, adrdedup.LabeledCasePair{CaseA: m.CaseA, CaseB: m.CaseB, Duplicate: dup})
		}
		totalFlagged += len(flagged)
		totalTrue += confirmed
		fmt.Printf("batch %d-%d: %d pairs scored, %d flagged, %d confirmed by officers\n",
			start, end, len(matches), len(flagged), confirmed)
		if err := det.TrainFromLabeledCases(training); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("intake complete: database %d reports, %d pairs flagged, %d true duplicates confirmed\n",
		det.Database().Len(), totalFlagged, totalTrue)
	snap := det.Metrics()
	fmt.Printf("engine totals: %d stages, %d comparisons, %d task retries\n",
		snap.StagesRun, snap.Comparisons, snap.TaskFailures)
	// Output:
	// bootstrap: 1200 reports, 1603 labelled pairs
	// batch 1200-1400: 259900 pairs scored, 16 flagged, 10 confirmed by officers
	// batch 1400-1600: 299900 pairs scored, 17 flagged, 10 confirmed by officers
	// batch 1600-1800: 339900 pairs scored, 16 flagged, 8 confirmed by officers
	// batch 1800-2000: 379900 pairs scored, 18 flagged, 8 confirmed by officers
	// intake complete: database 2000 reports, 67 pairs flagged, 36 true duplicates confirmed
	// engine totals: 40 stages, 1287780 comparisons, 0 task retries
}

// withoutArrivalSeq copies reports with their generator-assigned arrival
// sequence cleared; the detector assigns its own.
func withoutArrivalSeq(rs []adr.Report) []adr.Report {
	out := make([]adr.Report, len(rs))
	copy(out, rs)
	for i := range out {
		out[i].ArrivalSeq = 0
	}
	return out
}

// expertLabels builds the expert-labelled training pairs: every ground-truth
// duplicate inside the database, plus up to negatives non-duplicates, a third
// of them confusable same-campaign pairs, as a regulator's curated
// non-duplicate collection would hold.
func expertLabels(corpus *adrgen.Corpus, det *adrdedup.Detector, negatives int) []adrdedup.LabeledCasePair {
	var out []adrdedup.LabeledCasePair
	inDB := func(caseNum string) bool {
		_, ok := det.Database().Get(caseNum)
		return ok
	}
	for _, d := range corpus.Duplicates {
		if inDB(d.CaseA) && inDB(d.CaseB) {
			out = append(out, adrdedup.LabeledCasePair{CaseA: d.CaseA, CaseB: d.CaseB, Duplicate: true})
		}
	}
	count := 0
	byCampaign := make(map[int][]int)
	for i, camp := range corpus.CampaignOf {
		if camp >= 0 && inDB(corpus.Reports[i].CaseNumber) {
			byCampaign[camp] = append(byCampaign[camp], i)
		}
	}
	campIDs := make([]int, 0, len(byCampaign))
	for id := range byCampaign {
		campIDs = append(campIDs, id)
	}
	sort.Ints(campIDs)
	for _, id := range campIDs {
		members := byCampaign[id]
		for i := 0; i+1 < len(members) && count < negatives/3; i++ {
			a, b := members[i], members[i+1]
			if corpus.IsDuplicatePair(a, b) {
				continue
			}
			out = append(out, adrdedup.LabeledCasePair{
				CaseA: corpus.Reports[a].CaseNumber, CaseB: corpus.Reports[b].CaseNumber,
			})
			count++
		}
	}
	reports := det.Database().Reports()
	for i := 0; i+11 < len(reports) && count < negatives; i++ {
		a, b := reports[i], reports[i+11]
		if corpus.IsDuplicatePair(a.ArrivalSeq, b.ArrivalSeq) {
			continue
		}
		out = append(out, adrdedup.LabeledCasePair{CaseA: a.CaseNumber, CaseB: b.CaseNumber})
		count++
	}
	return out
}

func isTrueDuplicate(corpus *adrgen.Corpus, m adrdedup.Match) bool {
	for _, d := range corpus.Duplicates {
		if (d.CaseA == m.CaseA && d.CaseB == m.CaseB) || (d.CaseA == m.CaseB && d.CaseB == m.CaseA) {
			return true
		}
	}
	return false
}
