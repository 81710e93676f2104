package pairdist

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"adrdedup/internal/adrgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/intern"
)

// benchSink keeps the kernel's results observable to the compiler.
var benchSink float64

// BenchmarkPairKernel measures the all-pairs distance kernel over 240
// generated reports (28,680 pairs per op) — the inner loop of the paper's
// pairwise distance computing module (Fig. 10(b)). Pairs come grouped by
// their newer record, as a probe task hands them to the scorer.
//
//   - scorer: the product kernel, Scorer, into one reused buffer — zero
//     allocations per comparison;
//   - scorer-arena: the ComputeVectors shape, one arena per sweep;
//   - merge: the merge-scan reference, Distance's kernel, into one buffer.
func BenchmarkPairKernel(b *testing.B) {
	const numReports = 240
	c := adrgen.Generate(adrgen.Config{
		NumReports: numReports, DuplicatePairs: 20, NumDrugs: 60, NumADRs: 90, Seed: 42,
	})
	it := intern.New()
	interned := make([]Features, numReports)
	for i, r := range c.Reports {
		interned[i] = ExtractWith(it, r)
	}

	sweep := func(b *testing.B, into func(dst []float64, a, b *Features)) {
		b.ReportAllocs()
		var buf [Dims]float64
		for i := 0; i < b.N; i++ {
			var sum float64
			for y := 1; y < numReports; y++ {
				for x := 0; x < y; x++ {
					into(buf[:], &interned[x], &interned[y])
					sum += buf[FieldDescription]
				}
			}
			benchSink = sum
		}
	}
	b.Run("scorer", func(b *testing.B) {
		s := NewScorer(&cluster.WorkerScratch{})
		sweep(b, s.DistanceInto)
		s.Release()
	})

	b.Run("scorer-arena", func(b *testing.B) {
		// The ComputeVectors shape: vectors retained, backed by one arena
		// allocation per sweep.
		b.ReportAllocs()
		const pairs = numReports * (numReports - 1) / 2
		s := NewScorer(&cluster.WorkerScratch{})
		for i := 0; i < b.N; i++ {
			arena := make([]float64, Dims*pairs)
			p := 0
			for y := 1; y < numReports; y++ {
				for x := 0; x < y; x++ {
					s.DistanceInto(arena[p*Dims:(p+1)*Dims:(p+1)*Dims], &interned[x], &interned[y])
					p++
				}
			}
			benchSink = arena[0]
		}
		s.Release()
	})

	b.Run("merge", func(b *testing.B) { sweep(b, mergeDistanceInto) })
}

func benchAllPairs(n int) []IDPair {
	pairs := make([]IDPair, 0, n*(n-1)/2)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pairs = append(pairs, IDPair{A: a, B: b})
		}
	}
	return pairs
}

// scalingWorkerCounts is the 1 -> NumCPU sweep grid: powers of two plus the
// exact core count.
func scalingWorkerCounts() []int {
	var counts []int
	for w := 1; w < runtime.NumCPU(); w *= 2 {
		counts = append(counts, w)
	}
	return append(counts, runtime.NumCPU())
}

// scalingChunks splits the all-pairs list into chunks (tasks), with arenas
// preallocated so the timed region allocates nothing per pair.
func scalingChunks(pairs []IDPair, tasks int) ([][]IDPair, [][]float64) {
	chunks := make([][]IDPair, tasks)
	arenas := make([][]float64, tasks)
	for t := 0; t < tasks; t++ {
		lo := t * len(pairs) / tasks
		hi := (t + 1) * len(pairs) / tasks
		chunks[t] = pairs[lo:hi]
		arenas[t] = make([]float64, Dims*(hi-lo))
	}
	return chunks, arenas
}

// sweepChunk is one scaling task's work: the ComputeVectors loop over a
// chunk, into the task's preallocated arena.
func sweepChunk(tc *cluster.TaskContext, arena []float64, feats []Features, chunk []IDPair) {
	s := NewScorer(tc.Scratch())
	defer s.Release()
	for i, p := range chunk {
		s.DistanceInto(arena[i*Dims:(i+1)*Dims:(i+1)*Dims], &feats[p.A], &feats[p.B])
	}
}

// BenchmarkPoolScaling runs the 240-report all-pairs pair-kernel sweep
// (28,680 pairs/op) as one engine stage on 1 -> NumCPU pool workers; the CI
// scaling sanity check reads the same trend. Each task computes its chunk
// into a preallocated arena, so the per-pair steady state stays
// allocation-free; remaining allocs/op are fixed stage machinery, independent
// of the pair count.
func BenchmarkPoolScaling(b *testing.B) {
	const numReports = 240
	c := adrgen.Generate(adrgen.Config{
		NumReports: numReports, DuplicatePairs: 20, NumDrugs: 60, NumADRs: 90, Seed: 42,
	})
	it := intern.New()
	interned := make([]Features, numReports)
	for i, r := range c.Reports {
		interned[i] = ExtractWith(it, r)
	}
	pairs := benchAllPairs(numReports)
	for _, w := range scalingWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cl := cluster.New(cluster.Config{
				Executors: 1, CoresPerExecutor: w,
				RealWorkers: w,
			})
			defer cl.Close()
			tasks := 4 * w // 4 chunks per worker: a worker that finishes early claims another
			chunks, arenas := scalingChunks(pairs, tasks)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := cl.RunStage("pairsweep", tasks, func(tc *cluster.TaskContext) error {
					sweepChunk(tc, arenas[tc.Task()], interned, chunks[tc.Task()])
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPoolScalingSpeedup is the CI scaling sanity check: on a host
// with at least 4 cores, the 4-worker all-pairs sweep must run at least 2x
// faster than the 1-worker sweep (the acceptance floor; the trend should be
// near-linear to NumCPU). Hosts below 4 cores skip — they cannot exhibit
// the parallelism this asserts.
func TestPoolScalingSpeedup(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("host has %d CPUs, need >= 4 to measure 4-worker speedup", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in short mode")
	}
	const numReports = 240
	c := adrgen.Generate(adrgen.Config{
		NumReports: numReports, DuplicatePairs: 20, NumDrugs: 60, NumADRs: 90, Seed: 42,
	})
	it := intern.New()
	interned := make([]Features, numReports)
	for i, r := range c.Reports {
		interned[i] = ExtractWith(it, r)
	}
	pairs := benchAllPairs(numReports)

	sweep := func(workers int) time.Duration {
		cl := cluster.New(cluster.Config{
			Executors: 1, CoresPerExecutor: workers,
			RealWorkers: workers,
		})
		defer cl.Close()
		tasks := 4 * workers
		chunks, arenas := scalingChunks(pairs, tasks)
		run := func() time.Duration {
			start := time.Now()
			if _, err := cl.RunStage("pairsweep", tasks, func(tc *cluster.TaskContext) error {
				sweepChunk(tc, arenas[tc.Task()], interned, chunks[tc.Task()])
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return time.Since(start)
		}
		run() // warm scratches and caches
		best := run()
		for i := 0; i < 4; i++ {
			if d := run(); d < best {
				best = d
			}
		}
		return best
	}

	t1 := sweep(1)
	t4 := sweep(4)
	speedup := float64(t1) / float64(t4)
	t.Logf("1 worker: %v, 4 workers: %v, speedup %.2fx", t1, t4, speedup)
	if speedup < 2 {
		t.Errorf("4-worker speedup = %.2fx, want >= 2x (1w=%v, 4w=%v)", speedup, t1, t4)
	}
}

// BenchmarkExtract prices the one-time per-report preprocessing (tokenise,
// stem, intern) the interned kernel buys its zero-allocation comparisons
// with.
func BenchmarkExtract(b *testing.B) {
	c := adrgen.Generate(adrgen.Config{
		NumReports: 64, DuplicatePairs: 4, NumDrugs: 30, NumADRs: 40, Seed: 7,
	})
	b.Run("interned", func(b *testing.B) {
		it := intern.New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ExtractWith(it, c.Reports[i%len(c.Reports)])
		}
	})
}
