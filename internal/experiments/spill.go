package experiments

import (
	"fmt"
	"math"
	"time"

	"adrdedup/internal/adrgen"
	"adrdedup/internal/candgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/intern"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
)

// The memory-pressure exhibit: the paper's pipeline only reaches database
// scale because Spark executors spill to local disk instead of holding every
// shuffle buffer and cached partition in RAM. This exhibit runs the candidate
// generation pipeline — signature extraction, the prefix-filtered generator,
// and the shuffle-sort that fixes the candidate order for downstream
// vectorize/classify — twice over the same corpus: once unbounded and once
// under a per-executor budget far below the working set. The budgeted run
// must spill (block cache, shuffle buffers, external merge runs) and still
// produce byte-identical candidates; the makespan delta prices what the
// virtual spill disk (SpillMBps) costs relative to keeping everything
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

// Spill runs the candidate pipeline unbounded and under the budget and
// reports both rows. The two candidate outputs must be byte-identical —
// spilling is a placement decision, never a semantic one — and Spill returns
// an error if they diverge.
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

	run := func(budgeted bool) (SpillRow, []pairdist.IDPair, error) {
		row := SpillRow{Budgeted: budgeted}
		cfg := cluster.Config{
			Executors:           p.Executors,
			CoresPerExecutor:    1,
			NetworkMBps:         1000,
			ShuffleLatencyMS:    2,
			SchedulerOverheadMS: 5,
			Seed:                p.Seed,
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

		// Downstream order fix: shuffle-sort the candidates into (A, B)
		// order, through a cached RDD so the budgeted run presses the block
		// cache as well as the shuffle buffers and the external merge.
		cands := rdd.Parallelize(ctx, pairs, p.Partitions).
			SetName("candidates").WithBytesPerRecord(24).Cache()
		sorted, err := rdd.SortBy(cands, func(a, b pairdist.IDPair) bool {
			if a.A != b.A {
				return a.A < b.A
			}
			return a.B < b.B
		}, p.Partitions).Collect()
		if err != nil {
			return row, nil, fmt.Errorf("experiments: sorting candidates: %w", err)
		}

		m := cl.Metrics().Snapshot()
		row.ExecutionTime = cl.VirtualElapsed()
		row.Candidates = int64(len(sorted))
		row.SpillEvents = m.SpillEvents
		row.SpilledBytes = m.SpilledBytes
		return row, sorted, nil
	}

	var out []SpillRow
	var outputs [][]pairdist.IDPair
	for _, budgeted := range []bool{false, true} {
		row, pairs, err := run(budgeted)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
		outputs = append(outputs, pairs)
	}
	if len(outputs[0]) != len(outputs[1]) {
		return nil, fmt.Errorf("spill run diverged: %d candidates unbounded, %d budgeted",
			len(outputs[0]), len(outputs[1]))
	}
	for i := range outputs[0] {
		if outputs[0][i] != outputs[1][i] {
			return nil, fmt.Errorf("spill run diverged at candidate %d: unbounded %+v, budgeted %+v",
				i, outputs[0][i], outputs[1][i])
		}
	}
	return out, nil
}
