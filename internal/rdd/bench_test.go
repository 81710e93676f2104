package rdd

import (
	"testing"

	"adrdedup/internal/cluster"
)

// Engine micro-benchmarks for fused narrow-stage execution. Each benchmark
// runs the same operator graph twice — fused and with fusion disabled (the
// pre-fusion materializing baseline, reachable only through the test-only
// SetFusionEnabled) — and measures partition computation directly, so
// allocs/op and B/op reflect the operator chain itself rather than cluster
// scheduling noise.

func benchModes(b *testing.B, run func(b *testing.B)) {
	for _, mode := range []struct {
		name  string
		fused bool
	}{{"fused", true}, {"unfused", false}} {
		b.Run(mode.name, func(b *testing.B) {
			prev := SetFusionEnabled(mode.fused)
			defer SetFusionEnabled(prev)
			run(b)
		})
	}
}

// BenchmarkNarrowChain: a 3-operator map → filter → map chain over one
// 4096-element partition. Unfused, each operator materializes a full
// intermediate slice; fused, the chain collapses into one pass with a
// single pre-sized output allocation.
func BenchmarkNarrowChain(b *testing.B) {
	data := make([]int, 4096)
	for i := range data {
		data[i] = i
	}
	benchModes(b, func(b *testing.B) {
		ctx := NewContext(cluster.New(cluster.Config{Executors: 1}))
		chain := buildNarrowChain(ctx, data, 1)
		tc := &cluster.TaskContext{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := chain.compute(tc, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCartesianFilter: a 256x256 cross product immediately narrowed by
// a selective filter (~1% pass rate), the shape of the paper's candidate
// pair generation feeding the distance-vector stage. Unfused, the full
// 65536-pair slice materializes twice (Cartesian output + Filter's
// allocation); fused, pairs stream through the filter and only survivors
// are stored.
func BenchmarkCartesianFilter(b *testing.B) {
	data := make([]int, 256)
	for i := range data {
		data[i] = i
	}
	benchModes(b, func(b *testing.B) {
		ctx := NewContext(cluster.New(cluster.Config{Executors: 1}))
		left := Parallelize(ctx, data, 1)
		right := Parallelize(ctx, data, 1)
		pairs := Cartesian(left, right)
		kept := Filter(pairs, func(p Tuple2[int, int]) bool { return (p.A*251+p.B)%97 == 0 })
		dists := Map(kept, func(p Tuple2[int, int]) int { return p.A - p.B })
		tc := &cluster.TaskContext{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dists.compute(tc, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJoinPartition: an end-to-end hash join with the shape of the
// candidate-pair join (many values per key on both sides). Per-key
// cardinalities are counted up front so every value slice and the output
// slice allocate exactly once at final size instead of growing from nil
// through the append doubling schedule.
func BenchmarkJoinPartition(b *testing.B) {
	const n, keys = 10_000, 250
	left := make([]Pair[int, int], n)
	right := make([]Pair[int, int], n)
	for i := 0; i < n; i++ {
		left[i] = KV(i%keys, i)
		right[i] = KV((i*7)%keys, -i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := NewContext(cluster.New(cluster.Config{Executors: 4}))
		joined := Join(Parallelize(ctx, left, 4), Parallelize(ctx, right, 4), 4)
		if _, err := joined.Collect(); err != nil {
			b.Fatal(err)
		}
	}
}
