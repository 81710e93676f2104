package pairdist

import (
	"testing"

	"adrdedup/internal/adrgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/intern"
	"adrdedup/internal/rdd"
)

// sweepCorpus builds an interned feature set over generated reports.
func sweepCorpus(t testing.TB, numReports int, seed int64) []Features {
	t.Helper()
	c := adrgen.Generate(adrgen.Config{
		NumReports: numReports, DuplicatePairs: numReports / 12,
		NumDrugs: 60, NumADRs: 90, Seed: seed,
	})
	it := intern.New()
	feats := make([]Features, numReports)
	for i, r := range c.Reports {
		feats[i] = ExtractWith(it, r)
	}
	return feats
}

func allPairs(n int) []IDPair {
	pairs := make([]IDPair, 0, n*(n-1)/2)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pairs = append(pairs, IDPair{A: a, B: b})
		}
	}
	return pairs
}

// TestSweepArenaIsolation is the arena-isolation proof: ComputeVectors tasks
// running concurrently on a 2-worker pool over one shared feature set must
// reproduce the sequential reference exactly, and no two of the vectors they
// return may share memory — each task slices its own arena, full-capacity, so
// neither a concurrent task nor an append on a neighbouring Vec can reach
// another pair's floats. Run under -race in CI.
func TestSweepArenaIsolation(t *testing.T) {
	const numReports = 300
	feats := sweepCorpus(t, numReports, 42)
	pairs := allPairs(numReports)
	want := make([]float64, Dims*len(pairs))
	for i, p := range pairs {
		copy(want[i*Dims:(i+1)*Dims], Distance(feats[p.A], feats[p.B]))
	}

	c := cluster.New(cluster.Config{Executors: 1, RealWorkers: 2})
	defer c.Close()
	recs, err := ComputeVectors(rdd.NewContext(c), feats, pairs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(pairs) {
		t.Fatalf("%d records, want %d", len(recs), len(pairs))
	}
	for i, r := range recs {
		if r.A != pairs[i].A || r.B != pairs[i].B {
			t.Fatalf("record %d = (%d,%d), want (%d,%d)", i, r.A, r.B, pairs[i].A, pairs[i].B)
		}
		if len(r.Vec) != Dims || cap(r.Vec) != Dims {
			t.Fatalf("pair %d: len/cap(Vec) = %d/%d, want %d/%d", i, len(r.Vec), cap(r.Vec), Dims, Dims)
		}
		for d, v := range r.Vec {
			if v != want[i*Dims+d] {
				t.Fatalf("pair %d dim %d = %v, want %v", i, d, v, want[i*Dims+d])
			}
		}
	}
	// Aliasing check: stamp every float with its own index, then read them
	// all back. Two vectors sharing memory would lose a stamp.
	for i, r := range recs {
		for d := range r.Vec {
			r.Vec[d] = float64(i*Dims + d)
		}
	}
	for i, r := range recs {
		for d, v := range r.Vec {
			if v != float64(i*Dims+d) {
				t.Fatalf("pair %d dim %d was overwritten through another pair's vector", i, d)
			}
		}
	}
}
