package experiments

import (
	"testing"

	"adrdedup/internal/candgen"
)

// TestCandidatesExhibitShape runs the candidate-wall exhibit at reduced
// scale and pins its claims: the emitted candidate set is a small fraction
// of the quadratic space, the funnel only narrows
// (Scanned >= Verified >= Candidates), and the brute-force extrapolation
// prices the full quadratic space at the sampled per-pair rate.
func TestCandidatesExhibitShape(t *testing.T) {
	res, err := Candidates(CandidatesParams{
		records: 3000, samplePairs: 20000, seed: 5,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPairs != candgen.TotalPairs(3000, 0) {
		t.Errorf("TotalPairs = %d", res.TotalPairs)
	}
	if res.Verified == 0 || res.Candidates == 0 {
		t.Fatalf("empty funnel: %+v", res)
	}
	if res.Scanned < res.Verified || res.Verified < res.Candidates {
		t.Errorf("funnel not narrowing: scanned %d, verified %d, candidates %d",
			res.Scanned, res.Verified, res.Candidates)
	}
	if res.ReductionX < 10 {
		t.Errorf("candidate reduction %.1fx, want >= 10x", res.ReductionX)
	}
	if res.BruteExtrapolated < res.SampleWall {
		t.Errorf("extrapolation %v below sample measurement %v",
			res.BruteExtrapolated, res.SampleWall)
	}
	// The extrapolation is linear in pair count, so the prefix path's
	// downstream share must mirror the candidate reduction exactly.
	if res.PrefixDownstream > res.BruteExtrapolated {
		t.Errorf("downstream obligation %v exceeds brute extrapolation %v",
			res.PrefixDownstream, res.BruteExtrapolated)
	}
	if res.PrefixWall <= 0 || res.PrefixTotal < res.PrefixWall {
		t.Errorf("wall accounting broken: wall %v, total %v", res.PrefixWall, res.PrefixTotal)
	}
}

// TestCandidatesCountersReproducible runs the exhibit twice and requires the
// whole funnel — not just the emitted set — to repeat exactly. The counters
// hang on how candgen breaks frequency ties, which is by interned token ID,
// so this fails whenever IDs depend on how extract tasks were scheduled.
func TestCandidatesCountersReproducible(t *testing.T) {
	run := func() [4]int64 {
		res, err := Candidates(CandidatesParams{records: 1500, samplePairs: 5000, seed: 9}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return [4]int64{res.IndexEntries, res.Scanned, res.Verified, res.Candidates}
	}
	first, again := run(), run()
	if first != again {
		t.Errorf("index entries / scanned / verified / candidates differ between identical runs: %v vs %v", first, again)
	}
}

// BenchmarkCandidateGen runs the candidate-wall exhibit at full scale: a
// 100k-report corpus (5.0 billion quadratic pairs), where the extrapolated
// brute-force obligation is the infeasibility line and the prefix-filtered
// generator completes outright.
func BenchmarkCandidateGen(b *testing.B) {
	var res CandidatesResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Candidates(CandidatesParams{records: 100_000, samplePairs: 200_000, seed: 3}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Records), "records")
	b.ReportMetric(float64(res.TotalPairs), "quadratic-pairs")
	b.ReportMetric(float64(res.Verified), "verified-pairs")
	b.ReportMetric(float64(res.Candidates), "candidates")
	b.ReportMetric(res.ReductionX, "reduction-x")
	b.ReportMetric(res.PrefixWall.Seconds(), "prefix-wall-s")
	b.ReportMetric(res.PrefixTotal.Seconds(), "prefix-total-s")
	b.ReportMetric(res.BruteExtrapolated.Seconds(), "brute-extrapolated-s")
	b.ReportMetric(res.SpeedupX, "speedup-x")
}
