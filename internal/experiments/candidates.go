package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"adrdedup/internal/adrgen"
	"adrdedup/internal/candgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/intern"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
)

// The candidate-wall exhibit: §4.1 observes that checking reports pairwise
// is quadratic in database size, which is the wall that forces the paper
// onto a cluster. The brute-force candidate path materializes every pair
// and owes each one a distance-vector computation, so its cost is
// per-pair-vectorization × the quadratic pair count — measured here on a
// pair sample through the engine and extrapolated to the full space, since
// running it outright is the point of infeasibility. The prefix-filtered
// generator (internal/candgen) crosses the same corpus whole; the exhibit
// reports its funnel, wall-clock, and the candidate-count reduction that
// shrinks the downstream vectorize/classify obligation.

// CandidatesParams configures the exhibit.
type CandidatesParams struct {
	// records is the corpus size.
	records int
	// samplePairs is the number of random pairs vectorized to price the
	// brute-force path's per-pair cost, at most the quadratic space.
	samplePairs int
	seed        int64
}

const (
	// candidatesTheta is the signature-similarity threshold, the
	// detector's DefaultCandidateTheta.
	candidatesTheta = 0.5
	// candidatesPartitions is the generation parallelism, the paper's
	// executor count.
	candidatesPartitions = 25
)

// CandidatesResult is the exhibit's measurement.
type CandidatesResult struct {
	Records int

	// TotalPairs is the quadratic search space; Scanned/Verified/Candidates
	// are the generator's shrinking funnel (length-bound survivors, exact
	// verifications, emitted candidates).
	TotalPairs   int64
	IndexEntries int64
	Scanned      int64
	Verified     int64
	Candidates   int64
	// ReductionX is TotalPairs / Candidates: the shrink factor between the
	// quadratic enumeration and the candidate set actually handed to the
	// downstream vectorize/classify stages. (Verified records the
	// generator's own exact-check workload; its cost is inside PrefixWall.)
	ReductionX float64

	// PrefixWall is the measured wall-clock of the staged prefix generator
	// over the whole corpus; PrefixDownstream prices the vectorization its
	// candidate set still owes (per-pair rate × Candidates); PrefixTotal is
	// their sum — the end-to-end cost of the prefix path.
	PrefixWall       time.Duration
	PrefixDownstream time.Duration
	PrefixTotal      time.Duration
	// SamplePairs random pairs were vectorized through the engine in
	// SampleWall to price the per-pair cost; BruteExtrapolated scales that
	// rate to the full quadratic space — the brute-force candidate path's
	// obligation.
	SamplePairs       int
	SampleWall        time.Duration
	BruteExtrapolated time.Duration
	// SpeedupX is BruteExtrapolated / PrefixTotal.
	SpeedupX float64
}

// samplePairs draws m distinct-member pairs uniformly at random — the
// deterministic sample whose vectorization prices the brute path's per-pair
// cost.
func samplePairs(n, m int, seed int64) []pairdist.IDPair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]pairdist.IDPair, m)
	for i := range pairs {
		a, b := rng.Intn(n), rng.Intn(n-1)
		if b >= a {
			b++
		}
		if a > b {
			a, b = b, a
		}
		pairs[i] = pairdist.IDPair{A: a, B: b}
	}
	return pairs
}

// scaledCorpus generates a records-sized corpus of the paper's Table 3
// shape: duplicates grow linearly with the report count, lexicons by Heaps'
// law (~√n — a bigger spontaneous-reporting database sees more distinct
// drugs and reactions, sublinearly), and campaigns linearly (about 17
// reports per campaign at the default fraction — a real database
// accumulates more campaigns, not ever-larger ones; either fixed-size choice
// would grow quadratic near-duplicate mass that no generator could shrink).
func scaledCorpus(records int, seed int64) *adrgen.Corpus {
	heaps := max(math.Sqrt(float64(records)/10382), 1)
	return adrgen.Generate(adrgen.Config{
		NumReports:     records,
		DuplicatePairs: records / 36,
		NumDrugs:       int(1366 * heaps),
		NumADRs:        int(2351 * heaps),
		Campaigns:      records/50 + 1,
		Seed:           seed,
	})
}

// Candidates generates a records-sized corpus, extracts signature sets, runs
// the prefix-filtered generator whole, and prices the brute-force path by
// vectorizing a random pair sample and extrapolating to the quadratic space.
// workers sizes the task pool (cluster.Config.RealWorkers; 0 = NumCPU).
func Candidates(p CandidatesParams, workers int) (CandidatesResult, error) {
	var res CandidatesResult
	res.Records = p.records
	res.SamplePairs = int(min(int64(p.samplePairs), candgen.TotalPairs(p.records, 0)))

	corpus := scaledCorpus(p.records, p.seed)
	cfg := DefaultCluster()
	cfg.Seed = p.seed
	cfg.RealWorkers = workers
	ctx := rdd.NewContext(cluster.New(cfg))
	it := intern.New()
	feats, err := pairdist.ExtractAllWith(ctx, it, corpus.Reports, candidatesPartitions)
	if err != nil {
		return res, fmt.Errorf("experiments: extracting features: %w", err)
	}
	sigs, _ := candgen.Signatures(feats) // cannot fail

	res.TotalPairs = candgen.TotalPairs(len(sigs), 0)

	start := time.Now()
	pairs, st, err := candgen.Pairs(ctx, sigs, candgen.Params{
		Theta: candidatesTheta, Partitions: candidatesPartitions,
	})
	if err != nil {
		return res, fmt.Errorf("experiments: prefix generation: %w", err)
	}
	res.PrefixWall = time.Since(start)
	res.IndexEntries = st.IndexEntries
	res.Scanned = st.Scanned
	res.Verified = st.Verified
	res.Candidates = int64(len(pairs))
	if res.Candidates > 0 {
		res.ReductionX = float64(res.TotalPairs) / float64(res.Candidates)
	}

	// Price the per-pair vectorization through the same engine the brute
	// path would use, then extrapolate linearly by pair count: the brute
	// candidate path owes this for every pair in the quadratic space, the
	// prefix path only for its emitted candidates.
	sample := samplePairs(len(sigs), res.SamplePairs, p.seed+1)
	start = time.Now()
	if _, err := pairdist.ComputeVectors(ctx, feats, sample, candidatesPartitions); err != nil {
		return res, fmt.Errorf("experiments: vectorizing pair sample: %w", err)
	}
	res.SampleWall = time.Since(start)
	perPair := float64(res.SampleWall) / float64(len(sample))
	res.BruteExtrapolated = time.Duration(perPair * float64(res.TotalPairs))
	res.PrefixDownstream = time.Duration(perPair * float64(res.Candidates))
	res.PrefixTotal = res.PrefixWall + res.PrefixDownstream
	res.SpeedupX = timeRatio(res.BruteExtrapolated, res.PrefixTotal)
	return res, nil
}

func candidatesTables(res CandidatesResult) []Table {
	t := newTable(fmt.Sprintf("Candidate generation wall: %d reports, theta %.2f, %d partitions",
		res.Records, candidatesTheta, candidatesPartitions), "funnel stage", "pairs")
	t.add(text("quadratic space"), count(res.TotalPairs))
	t.add(text("prefix-index scanned"), count(res.Scanned))
	t.add(text("exactly verified"), count(res.Verified))
	t.add(text("candidates emitted"), count(res.Candidates))
	t.note("candidate reduction (quadratic pairs per candidate)", ratio(res.ReductionX, 0))
	t.note("prefix index entries", count(res.IndexEntries))
	t.note("prefix path generation", wall(res.PrefixWall))
	t.note("prefix path downstream vectorization", wall(res.PrefixDownstream))
	t.note("prefix path total", wall(res.PrefixTotal))
	t.note("brute path sample pairs", count(res.SamplePairs))
	t.note("brute path sample vectorization", wall(res.SampleWall))
	t.note("brute path extrapolated over the quadratic space", wall(res.BruteExtrapolated))
	t.note("brute path / prefix path", wallSpeedup(res.SpeedupX))
	return []Table{t}
}
