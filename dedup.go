// Package adrdedup is a library for scalable duplicate detection in adverse
// drug reaction (ADR) report databases, reproducing Wang & Karimi, "Parallel
// Duplicate Detection in Adverse Drug Reaction Databases with Spark"
// (EDBT 2016).
//
// The Detector implements the workflow of the paper's Figure 1: reports are
// text-processed, candidate report pairs are reduced to 7-dimensional field
// distance vectors (§4.2), and a Fast kNN classifier (§4.3) labels each pair
// duplicate or not. The classifier's kNN join is parallelized on an embedded
// Spark-like engine (internal/rdd + internal/cluster): the labelled training
// pairs are Voronoi-partitioned with k-means, cross-partition searches are
// pruned with the hyperplane bound of Algorithm 1, and the testing set can
// be pre-pruned around the positive pairs (§4.3.4).
//
// Typical use:
//
//	det, _ := adrdedup.New(adrdedup.Options{})
//	det.AddKnownReports(existing)                  // seed the database
//	det.TrainFromLabeledCases(labelled)            // expert-labelled pairs
//	matches, _ := det.Detect(newBatch)             // Eq. 3 over the batch
//
// Detect checks every new report against the existing database and the rest
// of its batch (Eq. 3), returns scored pairs, and absorbs the batch into the
// database so the next batch is checked against it too. DetectDuplicates does
// the same but ranks and names only the pairs flagged duplicate, for callers
// that read nothing else.
package adrdedup

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"adrdedup/internal/adr"
	"adrdedup/internal/candgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
	"adrdedup/internal/intern"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
)

// Options configures a Detector. Zero values take defaults.
type Options struct {
	// Cluster configures the embedded execution engine (executor count,
	// memory, failure injection, network model). The zero value is a
	// 4-executor cluster.
	Cluster cluster.Config
	// Classifier configures Fast kNN (k, cluster count b, partitions c,
	// threshold θ, testing-set pruning).
	Classifier core.Config
	// Candidates selects how Eq. 3's candidate pairs are generated; see
	// CandidateStrategy. The zero value is brute force (all pairs).
	Candidates CandidateStrategy
	// CandidateTheta is the signature Jaccard threshold used by
	// CandidatePrefixIndex (0 = the 0.5 default). Pairs whose signature
	// similarity falls below it are never vectorized or classified.
	CandidateTheta float64
}

// CandidateStrategy selects the candidate-generation algorithm feeding the
// pairwise distance stage.
type CandidateStrategy int

const (
	// CandidateBruteForce enumerates every Eq. 3 pair — exact, quadratic.
	CandidateBruteForce CandidateStrategy = iota
	// CandidatePrefixIndex keeps pairs whose signature-set Jaccard
	// similarity reaches Options.CandidateTheta, found with the
	// prefix-filtered inverted index of internal/candgen — exact with
	// respect to that threshold, far below quadratic work in practice, and
	// kept across Detect calls so a batch costs work proportional to the
	// batch, not to the database.
	CandidatePrefixIndex
)

func (s CandidateStrategy) String() string {
	if s == CandidatePrefixIndex {
		return "prefix-index"
	}
	return "brute-force"
}

// DefaultCandidateTheta is the signature-similarity threshold
// CandidatePrefixIndex uses when Options.CandidateTheta is zero. Duplicate
// ADR reports re-describe the same drugs, reactions, and narrative, so
// their signature sets overlap heavily; 0.5 keeps every plausibly matching
// pair while discarding the bulk of the quadratic space.
const DefaultCandidateTheta = 0.5

// Detector is the end-to-end duplicate detection pipeline bound to one
// report database. Methods must be called from one goroutine, mirroring a
// Spark driver.
type Detector struct {
	opts Options

	cl  *cluster.Cluster
	ctx *rdd.Context
	db  *adr.Database

	// interner assigns token IDs shared by every feature this detector
	// extracts, across batches, so all features stay mutually comparable
	// by the merge-scan Jaccard kernel.
	interner *intern.Interner
	// feats[i] is the preprocessed form of the report with ArrivalSeq i.
	feats []pairdist.Features
	// shipped counts the leading feats the scoring stage has broadcast to
	// the executors: a scoring call charges only those past it.
	shipped int
	// index is the persistent prefix-filtered candidate index behind
	// CandidatePrefixIndex (nil under brute force). It covers exactly
	// feats: absorb appends to both, an aborted batch truncates both.
	index *candgen.Index

	// model is the trained classifier and its score table (nil until
	// trained). Training replaces the whole value, so a table never
	// outlives the classifier that filled it.
	model *model

	// shape is the last Detect's classification size (zero when it
	// classified nothing).
	shape detectShape
}

// Match is one scored report pair produced by Detect.
type Match struct {
	// CaseA and CaseB identify the reports (CaseB is the newer one).
	CaseA, CaseB string
	// Score is the Eq. 5 classifier score.
	Score float64
	// Duplicate is the Eq. 6 decision at the configured θ.
	Duplicate bool
	// Pruned marks pairs eliminated by testing-set pruning.
	Pruned bool
}

// LabeledCasePair is an expert-labelled report pair referenced by case
// numbers, as a regulator's officers would record them.
type LabeledCasePair struct {
	CaseA, CaseB string
	Duplicate    bool
}

// New creates a Detector with an empty database.
func New(opts Options) (*Detector, error) {
	if err := opts.Classifier.Validate(); err != nil {
		return nil, err
	}
	var index *candgen.Index
	switch opts.Candidates {
	case CandidateBruteForce:
	case CandidatePrefixIndex:
		theta := opts.CandidateTheta
		if theta == 0 {
			theta = DefaultCandidateTheta
		}
		var err error
		if index, err = candgen.NewIndex(theta); err != nil {
			return nil, fmt.Errorf("adrdedup: %w", err)
		}
	default:
		return nil, fmt.Errorf("adrdedup: unknown candidate strategy %d", opts.Candidates)
	}
	cl := cluster.New(opts.Cluster)
	return &Detector{
		opts:     opts,
		cl:       cl,
		ctx:      rdd.NewContext(cl),
		db:       adr.NewDatabase(),
		interner: intern.New(),
		index:    index,
	}, nil
}

// Database exposes the underlying report database.
func (d *Detector) Database() *adr.Database { return d.db }

// Metrics returns a snapshot of the engine's counters.
func (d *Detector) Metrics() cluster.MetricsSnapshot { return d.cl.Metrics().Snapshot() }

// Engine returns the embedded RDD context, for advanced use (experiment
// harnesses, custom jobs against the same virtual cluster).
func (d *Detector) Engine() *rdd.Context { return d.ctx }

// ValidateBatch runs structural validation (internal/adr.Validate) over a
// report batch and returns the issues keyed by case number. Issues are
// warnings — Detect tolerates partial records — but regulators generally
// want them surfaced before ingestion.
func (d *Detector) ValidateBatch(batch []adr.Report) map[string][]adr.ValidationIssue {
	out := make(map[string][]adr.ValidationIssue)
	for i, r := range batch {
		if issues := adr.Validate(r); len(issues) > 0 {
			key := r.CaseNumber
			if key == "" {
				key = fmt.Sprintf("(report #%d without case number)", i)
			}
			out[key] = issues
		}
	}
	return out
}

// AddKnownReports appends reports to the database without duplicate
// checking — the initial load of an existing regulator database: Detect's
// absorbing half, and like Detect one batch, which leaves no trace if it fails.
func (d *Detector) AddKnownReports(reports []adr.Report) (err error) {
	defer d.end(d.mark(), nil, &err)
	return d.absorb(reports)
}

// absorb appends reports to the database, preprocesses them, and enters
// them into the candidate index. Once Add succeeds the batch is the
// database's tail, so features are extracted from the batch itself (they do
// not read the arrival sequence Add assigns).
func (d *Detector) absorb(reports []adr.Report) error {
	if err := d.db.Add(reports...); err != nil {
		return err
	}
	if len(reports) == 0 {
		return nil
	}
	parts := min(d.ctx.DefaultParallelism(), len(reports)) // a single report is one task, not eight
	feats, err := pairdist.ExtractAllWith(d.ctx, d.interner, reports, parts)
	if err != nil {
		return fmt.Errorf("adrdedup: extracting features: %w", err)
	}
	if d.index != nil {
		sigs, _ := candgen.Signatures(feats) // cannot fail
		d.index.Append(sigs)
	}
	d.feats = append(d.feats, feats...)
	return nil
}

// batchMark is the state a batch found: a batch is a call that changes the
// detector (AddKnownReports, or Detect and its variants). end closes it once:
// it aborts a failed batch back to its mark, commits one that succeeded, and
// releases its shuffles either way, so a failed batch leaves nothing the next
// call sees and may be sent again. Two things outlive an abort by design: the
// interner keeps the IDs it gave the batch's tokens (no result depends on
// which ID a token got), and the score table keeps the rows of a Classify
// that returned (they depend on the model, never on the database).
type batchMark struct {
	reports     int // the database, the features and the index each hold this many
	shuffles    *cluster.ShuffleService
	shuffleMark int // shuffles' watermark
}

// mark opens a batch at the detector's current state.
func (d *Detector) mark() batchMark {
	shuffles := d.ctx.Cluster().Shuffles()
	return batchMark{reports: d.db.Len(), shuffles: shuffles, shuffleMark: shuffles.Mark()}
}

// end closes the batch m opened, whose outcome is *err. An abort cuts the
// database, the features and the index back to the mark, and shipped to at
// most the mark's features, which the executors hold if the failed call
// broadcast them. A commit is the only write of d.shape (nil for
// AddKnownReports). The batch's shuffles are dead once it returns, and a
// long-lived detector (the online service) runs many batches on one cluster,
// so they are released; training-era shuffles, below the mark, stay.
func (d *Detector) end(m batchMark, shape *detectShape, err *error) {
	if *err != nil {
		d.db.Truncate(m.reports)
		d.feats = d.feats[:m.reports]
		d.shipped = min(d.shipped, m.reports)
		if d.index != nil {
			d.index.Truncate(m.reports)
		}
	} else if shape != nil {
		d.shape = *shape
	}
	m.shuffles.ReleaseSince(m.shuffleMark)
}

// TrainFromLabeledCases computes distance vectors for the labelled pairs and
// (re)trains the Fast kNN classifier. All referenced case numbers must
// already be in the database.
func (d *Detector) TrainFromLabeledCases(pairs []LabeledCasePair) error {
	if len(pairs) == 0 {
		return errors.New("adrdedup: no labelled pairs")
	}
	ids := make([]pairdist.IDPair, len(pairs))
	for i, p := range pairs {
		a, ok := d.db.Get(p.CaseA)
		if !ok {
			return fmt.Errorf("adrdedup: unknown case %q", p.CaseA)
		}
		b, ok := d.db.Get(p.CaseB)
		if !ok {
			return fmt.Errorf("adrdedup: unknown case %q", p.CaseB)
		}
		label := -1
		if p.Duplicate {
			label = +1
		}
		ids[i] = pairdist.IDPair{A: a.ArrivalSeq, B: b.ArrivalSeq, Label: label}
	}
	return d.TrainFromIDPairs(ids)
}

// TrainFromIDPairs trains directly from arrival-sequence pairs with labels
// (+1 duplicate, -1 non-duplicate). It is the lower-level entry point used
// by the experiment harness, where pair sets are sampled by index.
func (d *Detector) TrainFromIDPairs(ids []pairdist.IDPair) error {
	recs, err := pairdist.ComputeVectors(d.ctx, d.feats, ids, d.classifierPartitions())
	if err != nil {
		return fmt.Errorf("adrdedup: vectorizing training pairs: %w", err)
	}
	training := make([]core.TrainingPair, len(recs))
	for i, r := range recs {
		training[i] = core.TrainingPair{Vec: r.Vec, Label: r.Label}
	}
	clf, err := core.Train(d.ctx, training, d.opts.Classifier)
	if err != nil {
		return fmt.Errorf("adrdedup: training classifier: %w", err)
	}
	d.model = newModel(clf)
	return nil
}

// Trained reports whether a classifier is available.
func (d *Detector) Trained() bool { return d.model != nil }

func (d *Detector) classifierPartitions() int {
	if d.opts.Classifier.C > 0 {
		return d.opts.Classifier.C
	}
	return d.ctx.DefaultParallelism()
}

// Detect implements Eq. 3: every report in the batch is paired with every
// earlier database report and with the batch reports before it, the pairs
// are vectorized and classified, and the batch is then absorbed into the
// database. Matches are returned sorted by descending score; pruned pairs
// are omitted unless requested via DetectAll.
func (d *Detector) Detect(batch []adr.Report) ([]Match, error) {
	return d.detectMatches(batch, func(v verdict) bool { return !v.Pruned })
}

// DetectAll is Detect but also returns pairs eliminated by testing-set
// pruning (with Pruned set), for auditability.
func (d *Detector) DetectAll(batch []adr.Report) ([]Match, error) {
	return d.detectMatches(batch, func(verdict) bool { return true })
}

// detectMatches runs detect and orders the matches of the pairs whose
// verdicts keep accepts, nil when the batch has no pair.
func (d *Detector) detectMatches(batch []adr.Report, keep func(verdict) bool) ([]Match, error) {
	tasks, verdicts, err := d.detect(batch)
	if err != nil || len(verdicts) == 0 {
		return nil, err
	}
	return d.orderMatches(tasks, verdicts, keep), nil
}

// DetectDuplicates is Detect for a caller that reads only the duplicates, as
// the online service does: the batch is checked, classified and absorbed
// exactly as by Detect, with the same engine work, but only the pairs
// flagged duplicate are ranked and named. dups is Duplicates(Detect(batch))
// and scored is len(Detect(batch)), the pairs testing-set pruning kept.
func (d *Detector) DetectDuplicates(batch []adr.Report) (dups []Match, scored int, err error) {
	tasks, verdicts, err := d.detect(batch)
	if err != nil {
		return nil, 0, err
	}
	for _, t := range tasks {
		for _, p := range t.pairs {
			if !verdicts[p.slot].Pruned {
				scored++
			}
		}
	}
	return d.orderMatches(tasks, verdicts, func(v verdict) bool { return v.Label > 0 && !v.Pruned }), scored, nil
}

// detect absorbs the batch and returns its candidate pairs, in the tasks that
// found them, and the verdicts their slots index; both are empty when the
// batch has no pair. It is one batch (batchMark).
func (d *Detector) detect(batch []adr.Report) (_ []scoredTask, _ []verdict, err error) {
	if d.model == nil {
		return nil, nil, errors.New("adrdedup: classifier not trained")
	}
	m, shape := d.mark(), detectShape{}
	defer d.end(m, &shape, &err)
	if len(batch) == 0 {
		return nil, nil, nil
	}
	if err := d.absorb(batch); err != nil {
		return nil, nil, err
	}

	// Candidate pairs of Eq. 3: new x earlier, including earlier batch
	// members (r is checked against A ∪ R - r, deduplicated by ordering).
	tasks, pairs, err := d.scorePairs(m.reports)
	if err != nil || pairs == 0 {
		return nil, nil, err
	}
	// Eqs. 5/6 make a pair's result a function of its vector and the model
	// alone, and every call revisits the vectors' small lattice (four 0/1
	// fields, three Jaccard distances over small sets). So the score table
	// answers the vectors the model has seen; Classify gets each new one once.
	verdicts, classified, err := d.model.resolve(tasks)
	if err != nil {
		return nil, nil, fmt.Errorf("adrdedup: classifying candidate pairs: %w", err)
	}
	shape = detectShape{pairs: pairs, distinct: len(verdicts), classified: classified}
	return tasks, verdicts, nil
}

// scorePairs finds the candidate pairs of the reports from arrival sequence
// existing on, and vectorizes and looks up each in the score table in the
// task that found it: one probe stage under CandidatePrefixIndex (the pairs
// whose signature sets reach CandidateTheta), one stage over every pair the
// driver lists under brute force. It returns the tasks and the pair count.
func (d *Detector) scorePairs(existing int) ([]scoredTask, int, error) {
	m, feats := d.model, d.feats
	score := func(tc *cluster.TaskContext, _ int, ids []pairdist.IDPair) (scoredTask, error) {
		ws := tc.Scratch()
		vec := ws.Float64s(pairdist.Dims)
		// Both stages hand a task its pairs grouped by the newer record,
		// so the scorer marks each prober once.
		s := pairdist.NewScorer(ws)
		defer s.Release()
		t := scoredTask{pairs: make([]scoredPair, len(ids)), missed: make(map[vecKey]int32)}
		for i, p := range ids {
			s.DistanceInto(vec, &feats[p.A], &feats[p.B])
			t.pairs[i] = scoredPair{A: int32(p.A), B: int32(p.B), slot: t.slot(m, vec)}
		}
		tc.AddComparisons(int64(len(ids)))
		return t, nil
	}
	var tasks []scoredTask
	var err error
	if d.index != nil {
		tasks, _, err = candgen.ProbeEach(d.index, d.ctx, existing, d.classifierPartitions(),
			func(tc *cluster.TaskContext, ids []pairdist.IDPair) (scoredTask, error) {
				tc.AddRecords(int64(len(ids))) // a record per pair vectorized
				return score(tc, 0, ids)
			})
	} else if ids := allPairs(existing, len(feats)); len(ids) > 0 {
		// RunJob commits a record per pair, its input.
		src := rdd.Parallelize(d.ctx, ids, d.classifierPartitions()).SetName("pairIDs").WithBytesPerRecord(24)
		tasks, err = rdd.RunJob(src, "pairVectors", score)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("adrdedup: scoring candidate pairs: %w", err)
	}
	pairs := 0
	for _, t := range tasks {
		pairs += len(t.pairs)
	}
	if pairs > 0 {
		// The features the executors do not hold yet, ~300 bytes each.
		d.ctx.Cluster().Broadcast(int64(len(feats)-d.shipped) * 300)
		d.shipped = len(feats)
	}
	return tasks, pairs, nil
}

// allPairs returns every pair of reports 0..n-1 with B >= existing.
func allPairs(existing, n int) []pairdist.IDPair {
	var ids []pairdist.IDPair
	for b := existing; b < n; b++ {
		for a := 0; a < b; a++ {
			ids = append(ids, pairdist.IDPair{A: a, B: b})
		}
	}
	return ids
}

// detectShape is the size of one Detect call's classification: its candidate
// pairs, the distinct distance vectors among them, and how many of those
// Classify was sent, the ones the model had not scored before.
type detectShape struct {
	pairs, distinct, classified int
}

// vecKey is a distance vector's identity in the score table: the bit
// patterns of its coordinates. Equal bits are equal inputs to every distance
// Classify computes, so pairs with equal keys get equal results. Comparing
// with == instead would merge +0 with -0, and rounding would merge vectors
// that can score differently.
type vecKey [pairdist.Dims]uint64

// verdict is what the model decided for one distance vector.
type verdict struct {
	Score  float64
	Label  int
	Pruned bool
}

// model is a trained classifier and its score table: the verdict of every
// distance vector it has classified. Under a fixed training set a verdict is
// a pure function of the vector, so the table is exact for as long as the
// classifier lives, and dies with it.
type model struct {
	clf *core.Classifier

	rows []scoreRow
	// row maps a vector's key to its index in rows.
	row map[vecKey]int32
	// calls numbers score calls, to tell which rows the current call has
	// already placed.
	calls uint64
}

// scoreRow is one table entry. call and slot are resolve's scratch: the last
// call that referenced the row, and the row's slot in that call's verdicts.
type scoreRow struct {
	verdict
	call uint64
	slot int32
}

func newModel(clf *core.Classifier) *model {
	return &model{clf: clf, row: make(map[vecKey]int32)}
}

// scoredPair is a candidate pair and the slot of its vector's verdict: in a
// task, the vector's score-table row or ^k for the task's k-th miss; after
// resolve, the vector's slot in the call's verdicts.
type scoredPair struct{ A, B, slot int32 }

// scoredTask is one task's pairs and the keys (bits, so also the vectors) of
// the distinct vectors among them the table does not hold, in task order.
type scoredTask struct {
	pairs  []scoredPair
	misses []vecKey
	missed map[vecKey]int32 // index into misses
}

// slot returns the task-side slot of vec. It only reads the table: rows are
// inserted on the driver, after the stage and every attempt of it returned.
func (t *scoredTask) slot(m *model, vec []float64) int32 {
	var k vecKey
	for j := range k {
		k[j] = math.Float64bits(vec[j])
	}
	if e, ok := m.row[k]; ok {
		return e
	}
	s, ok := t.missed[k]
	if !ok {
		s = int32(len(t.misses))
		t.missed[k] = s
		t.misses = append(t.misses, k)
	}
	return ^s
}

// resolve returns the verdicts of the distinct vectors of the tasks' pairs
// and rewrites each pair's slot to its vector's slot in them; classified is
// how many vectors the model had never scored. Those, the tasks' misses, are
// deduplicated in task order, sent to Classify once, and entered into the
// table only if Classify succeeds. (Task order is exact: Classify does not
// depend on the order of its input, core.TestClassifyOrderIndependent.) Slots
// follow first appearance among the table's hits, then the misses, so the
// call's work and its verdicts are sized by its pairs, never by the table.
func (m *model) resolve(tasks []scoredTask) (verdicts []verdict, classified int, err error) {
	m.calls++
	var hits []int32    // rows this call references, by slot
	var misses []vecKey // the call's misses, deduplicated across tasks
	missed := make(map[vecKey]int32)
	var global []int32 // the current task's misses' indices into misses
	for _, t := range tasks {
		global = global[:0]
		for _, k := range t.misses {
			g, ok := missed[k]
			if !ok {
				g = int32(len(misses))
				missed[k] = g
				misses = append(misses, k)
			}
			global = append(global, g)
		}
		for i := range t.pairs {
			p := &t.pairs[i]
			if p.slot < 0 {
				p.slot = ^global[^p.slot] // resolved below, once the misses have slots
				continue
			}
			row := &m.rows[p.slot]
			if row.call != m.calls {
				row.call, row.slot = m.calls, int32(len(hits))
				hits = append(hits, p.slot)
			}
			p.slot = row.slot
		}
	}
	verdicts = make([]verdict, len(hits), len(hits)+len(misses))
	for s, e := range hits {
		verdicts[s] = m.rows[e].verdict
	}
	if len(misses) == 0 {
		return verdicts, 0, nil
	}
	vecs := make([][]float64, len(misses))
	for g, k := range misses {
		vecs[g] = make([]float64, pairdist.Dims)
		for j, b := range k {
			vecs[g][j] = math.Float64frombits(b)
		}
	}
	results, _, err := m.clf.Classify(vecs)
	if err != nil {
		return nil, 0, err
	}
	for g, res := range results { // results[g] is misses[g]'s
		v := verdict{Score: res.Score, Label: res.Label, Pruned: res.Pruned}
		m.row[misses[g]] = int32(len(m.rows))
		m.rows = append(m.rows, scoreRow{verdict: v})
		verdicts = append(verdicts, v)
	}
	base := int32(len(hits))
	for _, t := range tasks {
		for i := range t.pairs {
			if s := t.pairs[i].slot; s < 0 {
				t.pairs[i].slot = base + ^s
			}
		}
	}
	return verdicts, len(misses), nil
}

// orderMatches assembles the matches of the tasks' pairs whose verdicts keep
// accepts, the vectors' verdicts sitting at results[slot], sorted by
// descending score with ties broken by (CaseA, CaseB), so equal-scored
// matches come out in one deterministic order regardless of sort internals or
// candidate enumeration order. Nothing is compared per pair but integers: the
// call's kept verdicts are ranked once by score, the kept pairs are bucketed
// by their verdict's rank, and inside a bucket each pair is one integer, the
// ranks of its two reports in case-number order packed a<<32 | b (case
// numbers are unique, so ranks order as the strings do). Every table is sized
// by the call's distinct vectors and by the reports in its kept pairs, never
// by the database or the model's score table, and a pair keep rejects costs
// one lookup.
func (d *Detector) orderMatches(tasks []scoredTask, results []verdict, keep func(verdict) bool) []Match {
	var kept []int32 // the slots of the results keep accepts
	for s := range results {
		if keep(results[s]) {
			kept = append(kept, int32(s))
		}
	}
	// Label and Pruned split only equal scores that differ in them, which
	// Eq. 6 and ε > 0 rule out; with them in the rank, results sharing a
	// rank make identical matches whatever the classifier does.
	keptRank, ranks := denseRanks(len(kept), func(x, y int32) int {
		rx, ry := &results[kept[x]], &results[kept[y]]
		return cmp.Or(cmp.Compare(ry.Score, rx.Score), cmp.Compare(rx.Label, ry.Label),
			cmp.Compare(boolInt(rx.Pruned), boolInt(ry.Pruned)))
	})
	rank := make([]int32, len(results)) // a result's rank, -1 if not kept
	for s := range rank {
		rank[s] = -1
	}
	rep := make([]int32, ranks) // a result of each rank
	for i, s := range kept {
		rank[s] = keptRank[i]
		rep[keptRank[i]] = s
	}

	// Bucket by rank: start[r] is where rank r's pairs begin in keys.
	start := make([]int, ranks+1)
	for _, t := range tasks {
		for _, p := range t.pairs {
			if r := rank[p.slot]; r >= 0 {
				start[r+1]++
			}
		}
	}
	for r := 1; r <= ranks; r++ {
		start[r] += start[r-1]
	}
	next := slices.Clone(start[:ranks])
	local := make(map[int32]uint64) // arrival sequence -> index into seqs
	var seqs []int32
	index := func(seq int32) uint64 {
		i, ok := local[seq]
		if !ok {
			i = uint64(len(seqs))
			local[seq] = i
			seqs = append(seqs, seq)
		}
		return i
	}
	keys := make([]uint64, start[ranks])
	for _, t := range tasks {
		for _, p := range t.pairs {
			if r := rank[p.slot]; r >= 0 {
				keys[next[r]] = index(p.A)<<32 | index(p.B)
				next[r]++
			}
		}
	}

	cases := make([]string, len(seqs))
	for i, seq := range seqs {
		cases[i], _ = d.db.CaseNumber(int(seq))
	}
	caseRank, _ := denseRanks(len(cases), func(x, y int32) int { return strings.Compare(cases[x], cases[y]) })
	byRank := make([]string, len(cases))
	for i, r := range caseRank {
		byRank[r] = cases[i]
	}
	matches := make([]Match, len(keys))
	for r := 0; r < ranks; r++ {
		bucket := keys[start[r]:start[r+1]]
		for i, ab := range bucket {
			bucket[i] = uint64(caseRank[ab>>32])<<32 | uint64(caseRank[uint32(ab)])
		}
		slices.Sort(bucket)
		res := &results[rep[r]]
		for i, ab := range bucket {
			matches[start[r]+i] = Match{
				CaseA:     byRank[ab>>32],
				CaseB:     byRank[uint32(ab)],
				Score:     res.Score,
				Duplicate: res.Label > 0,
				Pruned:    res.Pruned,
			}
		}
	}
	return matches
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// denseRanks ranks the items 0..n-1 in the order compare defines, items
// compare finds equal sharing a rank, and returns each item's rank and the
// number of ranks.
func denseRanks(n int, compare func(x, y int32) int) (ranks []int32, count int) {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, compare)
	ranks = make([]int32, n)
	r := int32(-1)
	for i, x := range order {
		if i == 0 || compare(order[i-1], x) != 0 {
			r++
		}
		ranks[x] = r
	}
	return ranks, int(r) + 1
}

// Duplicates filters matches to the positive decisions, in their order, into
// a non-nil slice sized to what it keeps (a few dozen of tens of thousands).
func Duplicates(matches []Match) []Match {
	n := 0
	for _, m := range matches {
		if m.Duplicate {
			n++
		}
	}
	out := make([]Match, 0, n)
	for _, m := range matches {
		if m.Duplicate {
			out = append(out, m)
		}
	}
	return out
}
