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
	// Records is the corpus size (default 100,000 — an order past the
	// paper's 10,382-report TGA corpus).
	Records int
	// Theta is the signature-similarity threshold (default 0.5, the
	// detector's DefaultCandidateTheta).
	Theta float64
	// Partitions is the generation parallelism (default 25, the paper's
	// executor count).
	Partitions int
	// SamplePairs is the number of random pairs vectorized to price the
	// brute-force path's per-pair cost (default 200,000).
	SamplePairs int
	Seed        int64
}

func (p CandidatesParams) withDefaults() CandidatesParams {
	if p.Records <= 0 {
		p.Records = 100000
	}
	if p.Theta <= 0 {
		p.Theta = 0.5
	}
	if p.Partitions <= 0 {
		p.Partitions = 25
	}
	if p.SamplePairs <= 0 {
		p.SamplePairs = 200000
	}
	if max := candgen.TotalPairs(p.Records, 0); int64(p.SamplePairs) > max {
		p.SamplePairs = int(max)
	}
	return p
}

// CandidatesResult is the exhibit's measurement.
type CandidatesResult struct {
	Records    int
	Theta      float64
	Partitions int

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

// Candidates generates a Records-sized corpus, extracts signature sets, runs
// the prefix-filtered generator whole, and prices the brute-force path by
// vectorizing a random pair sample and extrapolating to the quadratic space.
func Candidates(p CandidatesParams) (CandidatesResult, error) {
	p = p.withDefaults()
	var res CandidatesResult
	res.Records = p.Records
	res.Theta = p.Theta
	res.Partitions = p.Partitions
	res.SamplePairs = p.SamplePairs

	// Corpus scaled from the paper's Table 3 shape: duplicates grow
	// linearly with the report count, lexicons by Heaps' law (~√n — a
	// bigger spontaneous-reporting database sees more distinct drugs and
	// reactions, sublinearly), and campaigns linearly (about 17 reports
	// per campaign at the default fraction — a real database accumulates
	// more campaigns, not ever-larger ones; either fixed-size choice would
	// grow quadratic near-duplicate mass that no generator could shrink).
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
	cfg := DefaultCluster()
	cfg.Seed = p.Seed
	ctx := rdd.NewContext(cluster.New(cfg))
	it := intern.New()
	feats, err := pairdist.ExtractAllWith(ctx, it, corpus.Reports, p.Partitions)
	if err != nil {
		return res, fmt.Errorf("experiments: extracting features: %w", err)
	}
	sigs, _ := candgen.Signatures(feats) // cannot fail

	res.TotalPairs = candgen.TotalPairs(len(sigs), 0)

	start := time.Now()
	pairs, st, err := candgen.Pairs(ctx, sigs, candgen.Params{
		Theta: p.Theta, Partitions: p.Partitions,
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
	sample := samplePairs(len(sigs), p.SamplePairs, p.Seed+1)
	start = time.Now()
	if _, err := pairdist.ComputeVectors(ctx, feats, sample, p.Partitions); err != nil {
		return res, fmt.Errorf("experiments: vectorizing pair sample: %w", err)
	}
	res.SampleWall = time.Since(start)
	perPair := float64(res.SampleWall) / float64(len(sample))
	res.BruteExtrapolated = time.Duration(perPair * float64(res.TotalPairs))
	res.PrefixDownstream = time.Duration(perPair * float64(res.Candidates))
	res.PrefixTotal = res.PrefixWall + res.PrefixDownstream
	if res.PrefixTotal > 0 {
		res.SpeedupX = float64(res.BruteExtrapolated) / float64(res.PrefixTotal)
	}
	return res, nil
}
