package rdd

import (
	"reflect"
	"sort"
	"testing"

	"adrdedup/internal/cluster"
)

// TestCacheServesFromBlockStore verifies that a cached RDD computes each
// partition once and serves later jobs from the block store.
func TestCacheServesFromBlockStore(t *testing.T) {
	ctx := testCtx()
	computes := new(sortedSink)
	r := Map(Parallelize(ctx, ints(40), 4), func(x int) int {
		computes.add(1)
		return x * x
	}).Cache()

	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	first := len(computes.vs)
	if first != 40 {
		t.Fatalf("first pass computed %d elements, want 40", first)
	}
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	if len(computes.vs) != first {
		t.Errorf("second job recomputed a cached RDD (%d extra computes)", len(computes.vs)-first)
	}
	if hits := ctx.Cluster().Metrics().BlockHits.Load(); hits < 4 {
		t.Errorf("block hits = %d, want >= 4", hits)
	}
}

// TestEvictionRecomputesFromLineage fills the cache beyond capacity and
// checks that evicted partitions recompute transparently with identical
// results — Spark's core fault-tolerance property.
func TestEvictionRecomputesFromLineage(t *testing.T) {
	cl := cluster.New(cluster.Config{Executors: 1, MemoryPerExecutorBytes: 1 << 20})
	ctx := NewContext(cl)
	data := ints(10000)
	// ~64 bytes/record estimate x 10k = 640KB per cached copy; three
	// cached RDDs exceed the 1MB budget and force evictions.
	a := Map(Parallelize(ctx, data, 4), func(x int) int { return x + 1 }).Cache()
	b := Map(Parallelize(ctx, data, 4), func(x int) int { return x + 2 }).Cache()
	c := Map(Parallelize(ctx, data, 4), func(x int) int { return x + 3 }).Cache()

	for range [3]int{} {
		for _, r := range []*RDD[int]{a, b, c} {
			vs, err := r.Collect()
			if err != nil {
				t.Fatal(err)
			}
			sum := 0
			for _, v := range vs {
				sum += v
			}
			if sum <= 0 {
				t.Fatalf("bad sum %d", sum)
			}
		}
	}
	m := cl.Metrics().Snapshot()
	if m.BlockEvictions == 0 {
		t.Error("expected evictions under 1MB budget")
	}
	if m.BlockRecomputes == 0 {
		t.Error("expected lineage recomputations after eviction")
	}
	// Results must still be exact.
	got, err := a.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("recomputed value wrong at %d: %d", i, v)
		}
	}
}

// TestUnpersistReleasesBlocks checks Unpersist removes cached partitions.
func TestUnpersistReleasesBlocks(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, ints(100), 4).Cache()
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	if ctx.Cluster().Blocks().Len() == 0 {
		t.Fatal("nothing cached")
	}
	r.Unpersist()
	if n := ctx.Cluster().Blocks().Len(); n != 0 {
		t.Errorf("%d blocks remain after Unpersist", n)
	}
	// Unpersist also stops future caching: a later job recomputes the
	// partitions and leaves the block store empty.
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	if n := ctx.Cluster().Blocks().Len(); n != 0 {
		t.Errorf("%d blocks cached by a job after Unpersist", n)
	}
}

// TestFaultInjectionDoesNotChangeResults runs a multi-stage pipeline with
// aggressive fault injection and verifies byte-identical results with a
// fault-free run.
func TestFaultInjectionDoesNotChangeResults(t *testing.T) {
	run := func(failureRate float64) []Pair[int, int] {
		cl := cluster.New(cluster.Config{
			Executors: 4, FailureRate: failureRate, MaxTaskRetries: 50, Seed: 13,
		})
		ctx := NewContext(cl)
		base := Parallelize(ctx, ints(1000), 8)
		keyed := Map(base, func(x int) Pair[int, int] { return KV(x%17, x) })
		summed := ReduceByKey(keyed, func(a, b int) int { return a + b }, 5)
		got, err := summed.Collect()
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
		return got
	}
	clean := run(0)
	faulty := run(0.3)
	if !reflect.DeepEqual(clean, faulty) {
		t.Errorf("fault injection changed results:\nclean  = %v\nfaulty = %v", clean, faulty)
	}
}

// TestShuffleChainAcrossStages exercises a three-shuffle lineage:
// partitionBy -> reduceByKey -> join, ensuring stage preparation runs each
// map stage exactly once even when the RDD graph is reused.
func TestShuffleChainAcrossStages(t *testing.T) {
	ctx := testCtx()
	base := Parallelize(ctx, kvPairs(200, 20), 6)
	counts := ReduceByKey(base, func(a, b int) int { return a + b }, 4)
	squares := Map(counts, func(kv Pair[int, int]) Pair[int, int] { return KV(kv.Key, kv.Value*kv.Value) })
	joined := Join(counts, squares, 4)

	got, err := joined.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("join rows = %d, want 20", len(got))
	}
	for _, kv := range got {
		if kv.Value.B != kv.Value.A*kv.Value.A {
			t.Errorf("key %d: %d squared != %d", kv.Key, kv.Value.A, kv.Value.B)
		}
	}
	stagesBefore := ctx.Cluster().Metrics().StagesRun.Load()
	// Re-running an action must not re-run the shuffle map stages.
	if _, err := joined.Collect(); err != nil {
		t.Fatal(err)
	}
	stagesAfter := ctx.Cluster().Metrics().StagesRun.Load()
	if stagesAfter != stagesBefore+1 {
		t.Errorf("re-collect ran %d stages, want exactly 1 (shuffles must not re-run)",
			stagesAfter-stagesBefore)
	}
}

// TestShuffleByteAccounting verifies the shuffle service counts the bytes
// that the virtual network model charges for.
func TestShuffleByteAccounting(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, kvPairs(100, 10), 4).WithBytesPerRecord(100)
	if _, err := PartitionBy(r, 4).Collect(); err != nil {
		t.Fatal(err)
	}
	m := ctx.Cluster().Metrics().Snapshot()
	if m.ShuffleRecordsWritten != 100 {
		t.Errorf("shuffle records = %d, want 100", m.ShuffleRecordsWritten)
	}
	if m.ShuffleBytesWritten != 100*100 {
		t.Errorf("shuffle bytes = %d, want 10000", m.ShuffleBytesWritten)
	}
	if m.ShuffleBytesRead != m.ShuffleBytesWritten {
		t.Errorf("read %d != written %d", m.ShuffleBytesRead, m.ShuffleBytesWritten)
	}
}

// TestWordCount is the canonical Spark smoke test end-to-end.
func TestWordCount(t *testing.T) {
	ctx := testCtx()
	lines := []string{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog",
	}
	words := FlatMap(Parallelize(ctx, lines, 2), func(l string) []string {
		var out []string
		start := -1
		for i := 0; i <= len(l); i++ {
			if i == len(l) || l[i] == ' ' {
				if start >= 0 {
					out = append(out, l[start:i])
					start = -1
				}
			} else if start < 0 {
				start = i
			}
		}
		return out
	})
	counts, err := ReduceByKey(
		Map(words, func(w string) Pair[string, int] { return KV(w, 1) }),
		func(a, b int) int { return a + b }, 3).Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 2}
	if len(counts) != len(want) {
		t.Fatalf("got %d words, want %d", len(counts), len(want))
	}
	for _, kv := range counts {
		if want[kv.Key] != kv.Value {
			t.Errorf("%q = %d, want %d", kv.Key, kv.Value, want[kv.Key])
		}
	}
}
