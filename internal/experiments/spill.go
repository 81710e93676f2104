package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"adrdedup/internal/adrgen"
	"adrdedup/internal/candgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
	"adrdedup/internal/intern"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
)

// The memory-pressure exhibit: the paper's pipeline only reaches database
// scale because Spark executors spill to local disk instead of holding every
// shuffle buffer and cached partition in RAM. This exhibit runs the stages
// Detect runs on a batch — signature extraction, the prefix-filtered
// candidate generator, vectorizing every candidate, and Fast kNN
// classification (Algorithm 2) of the candidate vectors against a model
// trained on a labelled pair sample — twice over the same corpus: once
// unbounded and once under a per-executor budget far below the working set.
// The budgeted run must spill in every tier the classifier presses — the
// block cache (the cached negative training blocks and stage-1 rows), the
// join and merge shuffles, and the external join — and still produce
// bit-identical results; the makespan delta prices what the virtual spill
// disk (500 MB/s, Cluster.SpillIONS) costs relative to keeping everything
// resident.

// SpillParams configures the exhibit.
type SpillParams struct {
	// Records is the corpus size (default 4,000 — big enough that the
	// candidate working set dwarfs the budget below).
	Records int
	// Theta is the signature-similarity threshold (default 0.5).
	Theta float64
	// Partitions is the pipeline parallelism (default 16).
	Partitions int
	// Executors sizes the virtual cluster (default 8).
	Executors int
	// MemoryPerExecutorBytes is the budgeted run's per-executor budget
	// (default 16 KiB — pathological on purpose; the unbounded run uses the
	// engine default).
	MemoryPerExecutorBytes int64
	Seed                   int64
}

func (p SpillParams) withDefaults() SpillParams {
	if p.Records <= 0 {
		p.Records = 4000
	}
	if p.Theta <= 0 {
		p.Theta = 0.5
	}
	if p.Partitions <= 0 {
		p.Partitions = 16
	}
	if p.Executors <= 0 {
		p.Executors = 8
	}
	if p.MemoryPerExecutorBytes <= 0 {
		p.MemoryPerExecutorBytes = 16 << 10
	}
	return p
}

// SpillRow is one configuration's measurement.
type SpillRow struct {
	Budgeted               bool
	MemoryPerExecutorBytes int64
	ExecutionTime          time.Duration
	Candidates             int64
	SpillEvents            int64
	SpilledBytes           int64
	// BlockSpills, ShuffleSpills and JoinSpills split SpillEvents by the
	// tier that wrote them: cached partitions, shuffle blocks and the
	// external join's build-side chunks.
	BlockSpills, ShuffleSpills, JoinSpills int64
}

// SpillOverhead returns the budgeted/unbounded virtual makespan ratio — the
// headline cost of running the working set through the spill tier instead of
// RAM.
func SpillOverhead(rows []SpillRow) float64 {
	var unbounded, budgeted time.Duration
	for _, r := range rows {
		if r.Budgeted {
			budgeted = r.ExecutionTime
		} else {
			unbounded = r.ExecutionTime
		}
	}
	if unbounded <= 0 {
		return 0
	}
	return float64(budgeted) / float64(unbounded)
}

// Spill runs the candidate and classification pipeline unbounded and under
// the budget and reports both rows. The two runs must return bit-identical
// results — every candidate's score and label — since spilling is a
// placement decision, never a semantic one; Spill returns an error if they
// diverge.
func Spill(p SpillParams) ([]SpillRow, error) {
	p = p.withDefaults()

	// Corpus scaled the same way as the candidate-wall exhibit: duplicates
	// linear in the report count, lexicons by Heaps' law.
	heaps := math.Sqrt(float64(p.Records) / 10382)
	if heaps < 1 {
		heaps = 1
	}
	corpus := adrgen.Generate(adrgen.Config{
		NumReports:     p.Records,
		DuplicatePairs: p.Records / 36,
		NumDrugs:       int(1366 * heaps),
		NumADRs:        int(2351 * heaps),
		Campaigns:      p.Records/50 + 1,
		Seed:           p.Seed,
	})
	// The labelled sample the model trains on: every ground-truth duplicate
	// and two sampled pairs per report in all.
	labelled, err := corpus.SamplePairs(adrgen.PairSampleOptions{
		Total: 2 * p.Records, HardFraction: 0.3, Seed: p.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: sampling training pairs: %w", err)
	}
	trainIDs := make([]pairdist.IDPair, len(labelled))
	for i, lp := range labelled {
		trainIDs[i] = pairdist.IDPair{A: lp.A, B: lp.B, Label: lp.Label}
	}

	run := func(budgeted bool) (SpillRow, []core.Result, error) {
		row := SpillRow{Budgeted: budgeted}
		cfg := cluster.Config{
			Executors:           p.Executors,
			CoresPerExecutor:    1,
			NetworkMBps:         1000,
			ShuffleLatencyMS:    2,
			SchedulerOverheadMS: 5,
			Seed:                p.Seed,
			Trace:               true, // spill events tell the tiers apart
		}
		if budgeted {
			cfg.SpillToDisk = true
			cfg.MemoryPerExecutorBytes = p.MemoryPerExecutorBytes
			row.MemoryPerExecutorBytes = p.MemoryPerExecutorBytes
		}
		cl := cluster.New(cfg)
		defer cl.Close()
		ctx := rdd.NewContext(cl)

		it := intern.New()
		feats, err := pairdist.ExtractAllWith(ctx, it, corpus.Reports, p.Partitions)
		if err != nil {
			return row, nil, fmt.Errorf("experiments: extracting features: %w", err)
		}
		sigs, _ := candgen.Signatures(feats) // cannot fail
		pairs, _, err := candgen.Pairs(ctx, sigs, candgen.Params{
			Theta: p.Theta, Partitions: p.Partitions,
		})
		if err != nil {
			return row, nil, fmt.Errorf("experiments: prefix generation: %w", err)
		}
		cands, err := pairdist.ComputeVectors(ctx, feats, pairs, p.Partitions)
		if err != nil {
			return row, nil, fmt.Errorf("experiments: vectorizing candidates: %w", err)
		}
		trainRecs, err := pairdist.ComputeVectors(ctx, feats, trainIDs, p.Partitions)
		if err != nil {
			return row, nil, fmt.Errorf("experiments: vectorizing training pairs: %w", err)
		}
		training := make([]core.TrainingPair, len(trainRecs))
		for i, r := range trainRecs {
			training[i] = core.TrainingPair{Vec: r.Vec, Label: r.Label}
		}
		// The classifier defaults Detect runs with: k = 9, b = 32 Voronoi
		// cells, C = 8 testing partitions.
		clf, err := core.Train(ctx, training, core.Config{Seed: p.Seed})
		if err != nil {
			return row, nil, fmt.Errorf("experiments: training: %w", err)
		}
		test := make([][]float64, len(cands))
		for i, r := range cands {
			test[i] = r.Vec
		}
		results, _, err := clf.Classify(test)
		if err != nil {
			return row, nil, fmt.Errorf("experiments: classifying candidates: %w", err)
		}

		m := cl.Metrics().Snapshot()
		row.ExecutionTime = cl.VirtualElapsed()
		row.Candidates = int64(len(cands))
		row.SpillEvents = m.SpillEvents
		row.SpilledBytes = m.SpilledBytes
		if err := countSpillTiers(&row, cl.Tracer().Snapshot()); err != nil {
			return row, nil, err
		}
		return row, results, nil
	}

	var out []SpillRow
	var outputs [][]core.Result
	for _, budgeted := range []bool{false, true} {
		row, results, err := run(budgeted)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
		outputs = append(outputs, results)
	}
	if len(outputs[0]) != len(outputs[1]) {
		return nil, fmt.Errorf("spill run diverged: %d results unbounded, %d budgeted",
			len(outputs[0]), len(outputs[1]))
	}
	for i, want := range outputs[0] {
		got := outputs[1][i]
		if got.ID != want.ID || math.Float64bits(got.Score) != math.Float64bits(want.Score) ||
			got.Label != want.Label {
			return nil, fmt.Errorf("spill run diverged at candidate %d: unbounded (score %v, label %d), budgeted (score %v, label %d)",
				i, want.Score, want.Label, got.Score, got.Label)
		}
	}
	return out, nil
}

// countSpillTiers splits the trace's spill events by tier, told apart by
// each event's Detail: a cached partition ("rdd3/p7"), a shuffle block
// ("shuffle 4 reduce 1 map 2/0") or an external-join chunk ("join p2 left
// chunk 0"). Every spill must be in the trace and in a known tier.
func countSpillTiers(row *SpillRow, events []cluster.Event) error {
	for _, e := range events {
		if e.Kind != cluster.EventSpill {
			continue
		}
		switch {
		case strings.HasPrefix(e.Detail, "rdd"):
			row.BlockSpills++
		case strings.HasPrefix(e.Detail, "shuffle "):
			row.ShuffleSpills++
		case strings.HasPrefix(e.Detail, "join "):
			row.JoinSpills++
		default:
			return fmt.Errorf("experiments: spill event of unknown tier %q", e.Detail)
		}
	}
	if n := row.BlockSpills + row.ShuffleSpills + row.JoinSpills; n != row.SpillEvents {
		return fmt.Errorf("experiments: trace holds %d spill events, metrics count %d", n, row.SpillEvents)
	}
	return nil
}
