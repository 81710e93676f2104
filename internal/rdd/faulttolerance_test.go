package rdd

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"adrdedup/internal/cluster"
)

// killAllButOne fails every live executor except the last, invalidating all
// executor-hosted shuffle outputs and cached partitions.
func killAllButOne(t *testing.T, cl *cluster.Cluster) {
	t.Helper()
	live := cl.LiveExecutors()
	if len(live) < 2 {
		t.Fatal("need at least 2 live executors to kill")
	}
	for _, e := range live[:len(live)-1] {
		if !cl.FailExecutor(e) {
			t.Fatalf("FailExecutor(%d) refused", e)
		}
	}
}

func recomputeStages(cl *cluster.Cluster) int {
	n := 0
	for _, s := range cl.StageHistory() {
		if strings.Contains(s.Name, ".recompute") {
			n++
		}
	}
	return n
}

// TestExecutorLossTransparentToJobs: an RDD pipeline run under executor kills
// must produce the same results and committed work counters as a kill-free
// run — recovery is invisible above the cluster layer.
func TestExecutorLossTransparentToJobs(t *testing.T) {
	run := func(killRate float64) ([]Pair[int, int], cluster.MetricsSnapshot) {
		cl := cluster.New(cluster.Config{
			Executors:           4,
			Seed:                23,
			ExecutorFailureRate: killRate,
		})
		ctx := NewContext(cl)
		data := make([]int, 400)
		for i := range data {
			data[i] = i
		}
		keyed := Map(Parallelize(ctx, data, 8), func(v int) Pair[int, int] { return KV(v%5, v) })
		sums := ReduceByKey(keyed, func(a, b int) int { return a + b }, 3)
		// A second shuffle to another width, so kills also hit a map stage
		// that reads a shuffle's output.
		out, err := PartitionBy(sums, 2).Collect()
		if err != nil {
			t.Fatalf("pipeline at kill rate %v: %v", killRate, err)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return out, cl.Metrics().Snapshot()
	}
	wantOut, clean := run(0)
	gotOut, faulty := run(0.3)

	if faulty.ExecutorFailures == 0 {
		t.Fatal("kill rate 0.3 lost no executors; test is vacuous")
	}
	if fmt.Sprint(gotOut) != fmt.Sprint(wantOut) {
		t.Errorf("results diverge under executor loss:\n got %v\nwant %v", gotOut, wantOut)
	}
	if clean.RecordsProcessed != faulty.RecordsProcessed ||
		clean.Comparisons != faulty.Comparisons ||
		clean.ShuffleRecordsWritten != faulty.ShuffleRecordsWritten ||
		clean.ShuffleBytesWritten != faulty.ShuffleBytesWritten ||
		clean.ShuffleBytesRead != faulty.ShuffleBytesRead {
		t.Errorf("work counters diverge under executor loss:\n clean  %+v\n faulty %+v", clean, faulty)
	}
	if faulty.RecomputedTasks > faulty.MapOutputsLost {
		t.Errorf("RecomputedTasks %d > MapOutputsLost %d: recovery recomputed more than it lost",
			faulty.RecomputedTasks, faulty.MapOutputsLost)
	}
}

// TestLostShuffleOutputsRecomputedAfterExecutorLoss: killing the hosts of a
// finished shuffle's map outputs makes the next job over the same RDD
// recompute the lost outputs from lineage, and only those, with an unchanged
// result.
func TestLostShuffleOutputsRecomputedAfterExecutorLoss(t *testing.T) {
	cl := cluster.New(cluster.Config{Executors: 4, ExecutorRecoveryStages: 1000})
	ctx := NewContext(cl)
	keyed := Map(Parallelize(ctx, ints(200), 6), func(v int) Pair[int, int] { return KV(v%4, v) })
	sums := ReduceByKey(keyed, func(a, b int) int { return a + b }, 3)
	want, err := sums.Collect()
	if err != nil {
		t.Fatal(err)
	}
	killAllButOne(t, cl)
	got, err := sums.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if n := recomputeStages(cl); n == 0 {
		t.Fatal("executor loss recomputed nothing; test is vacuous")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("recovered collect = %v, want %v", got, want)
	}
	m := cl.Metrics().Snapshot()
	if m.RecomputedTasks > m.MapOutputsLost {
		t.Errorf("RecomputedTasks %d > MapOutputsLost %d: recovery recomputed more than it lost",
			m.RecomputedTasks, m.MapOutputsLost)
	}
}

// TestCachedPartitionsDieWithExecutor: a cached partition lives on the
// executor that computed it, so killing that executor drops it and the next
// read recomputes it from lineage.
func TestCachedPartitionsDieWithExecutor(t *testing.T) {
	cl := cluster.New(cluster.Config{Executors: 3, ExecutorRecoveryStages: 1000})
	ctx := NewContext(cl)
	cached := Map(Parallelize(ctx, []int{1, 2, 3, 4, 5, 6}, 3), func(v int) int { return v * 2 }).Cache()
	want, err := cached.Collect()
	if err != nil {
		t.Fatal(err)
	}
	killAllButOne(t, cl)
	got, err := cached.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if cl.Metrics().BlockRecomputes.Load() == 0 {
		t.Error("cached partitions survived executor loss; cache is not host-local")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("recomputed collect = %v, want %v", got, want)
	}
}

// TestSpilledCachedPartitionsCollectAfterHostLoss: a cached RDD whose
// partitions were displaced to executor-local spill disk loses them with the
// hosts (spill files live on the dead host's disk); the next collect
// recomputes them from lineage and matches an unbudgeted, kill-free run.
func TestSpilledCachedPartitionsCollectAfterHostLoss(t *testing.T) {
	build := func(cl *cluster.Cluster) *RDD[Pair[int, int]] {
		ctx := NewContext(cl)
		keyed := Map(Parallelize(ctx, ints(400), 8), func(v int) Pair[int, int] { return KV(v%5, v) })
		return ReduceByKey(keyed, func(a, b int) int { return a + b }, 4)
	}

	clOracle := cluster.New(cluster.Config{Executors: 4})
	defer clOracle.Close()
	want, err := build(clOracle).Collect()
	if err != nil {
		t.Fatal(err)
	}

	// A pathological 64-byte budget displaces every cached partition to
	// spill disk the moment it lands.
	cl := cluster.New(cluster.Config{
		Executors:              4,
		ExecutorRecoveryStages: 1000,
		SpillToDisk:            true,
		MemoryPerExecutorBytes: 64,
	})
	defer cl.Close()
	sums := build(cl).Cache()
	if _, err := sums.Collect(); err != nil {
		t.Fatal(err)
	}
	if cl.Blocks().SpilledLen() == 0 {
		t.Fatal("no cached partition spilled under a 64-byte budget; test is vacuous")
	}
	killAllButOne(t, cl)
	got, err := sums.Collect()
	if err != nil {
		t.Fatalf("collect after executor loss: %v", err)
	}
	if cl.Metrics().BlockRecomputes.Load() == 0 {
		t.Error("spilled partitions on killed hosts were read back instead of recomputed")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("post-kill collect = %v, want %v", got, want)
	}
}

// runCountedPipeline executes a representative shuffle pipeline (map →
// reduceByKey → counting action) on a fresh cluster with the given failure
// rate and returns the final metrics snapshot. Everything except the failure
// rate — data, seed, partitioning — is held fixed.
func runCountedPipeline(t *testing.T, failureRate float64) cluster.MetricsSnapshot {
	t.Helper()
	cl := cluster.New(cluster.Config{
		Executors:      4,
		FailureRate:    failureRate,
		MaxTaskRetries: 50,
		Seed:           42,
	})
	ctx := NewContext(cl)

	data := make([]int, 600)
	for i := range data {
		data[i] = i
	}
	base := Parallelize(ctx, data, 6).SetName("base")
	keyed := Map(base, func(v int) Pair[int, int] { return KV(v%7, v) }).SetName("keyed")
	sums := ReduceByKey(keyed, func(a, b int) int { return a + b }, 4)
	counts, err := RunJob(sums, "tally", func(tc *cluster.TaskContext, p int, in []Pair[int, int]) (int, error) {
		tc.AddRecords(int64(len(in)))
		for range in {
			tc.AddComparisons(3)
		}
		return len(in), nil
	})
	if err != nil {
		t.Fatalf("pipeline at failure rate %v: %v", failureRate, err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 7 {
		t.Fatalf("pipeline at failure rate %v produced %d keys, want 7", failureRate, total)
	}
	return cl.Metrics().Snapshot()
}

// TestFaultInjectionCounterInvariance is the acceptance check for
// attempt-scoped metrics: running the identical job with and without fault
// injection must yield bit-identical work counters, because failed attempts'
// deltas are discarded rather than committed. Only the launch/failure
// counters may differ.
func TestFaultInjectionCounterInvariance(t *testing.T) {
	clean := runCountedPipeline(t, 0)
	faulty := runCountedPipeline(t, 0.3)

	if faulty.TaskFailures == 0 {
		t.Fatal("failure rate 0.3 injected no failures; test is vacuous")
	}
	if faulty.TasksLaunched <= clean.TasksLaunched {
		t.Errorf("TasksLaunched: faulty %d should exceed clean %d",
			faulty.TasksLaunched, clean.TasksLaunched)
	}
	if clean.TaskFailures != 0 {
		t.Errorf("clean run reported %d failures", clean.TaskFailures)
	}

	invariant := []struct {
		name          string
		clean, faulty int64
	}{
		{"Comparisons", clean.Comparisons, faulty.Comparisons},
		{"RecordsProcessed", clean.RecordsProcessed, faulty.RecordsProcessed},
		{"ShuffleRecordsWritten", clean.ShuffleRecordsWritten, faulty.ShuffleRecordsWritten},
		{"ShuffleBytesWritten", clean.ShuffleBytesWritten, faulty.ShuffleBytesWritten},
		{"ShuffleBytesRead", clean.ShuffleBytesRead, faulty.ShuffleBytesRead},
		{"StagesRun", clean.StagesRun, faulty.StagesRun},
	}
	for _, c := range invariant {
		if c.clean != c.faulty {
			t.Errorf("%s differs under fault injection: clean %d, faulty %d",
				c.name, c.clean, c.faulty)
		}
	}
	if clean.Comparisons == 0 || clean.ShuffleRecordsWritten == 0 || clean.ShuffleBytesRead == 0 {
		t.Errorf("pipeline exercised no counters: %+v", clean)
	}
}

// TestCachedPartitionsSurviveMutatingMapPartitions is the regression test for
// the materialize aliasing bug: a downstream MapPartitions that mutates its
// input slice in place must not corrupt the cached parent partition, because
// materialize hands out defensive copies of cached blocks.
func TestCachedPartitionsSurviveMutatingMapPartitions(t *testing.T) {
	ctx := NewContext(cluster.New(cluster.Config{Executors: 2}))

	parent := Map(Parallelize(ctx, []int{1, 2, 3, 4, 5, 6}, 3),
		func(v int) int { return v * 10 }).Cache()
	want, err := parent.Collect() // materializes the cache
	if err != nil {
		t.Fatal(err)
	}

	// An in-place mutator, as user code might legitimately write: sorting,
	// zeroing, or overwriting its input buffer.
	mutated, err := MapPartitions(parent, func(in []int) ([]int, error) {
		for i := range in {
			in[i] = -1
		}
		return in, nil
	}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range mutated {
		if v != -1 {
			t.Fatalf("mutator did not see its own writes: %v", mutated)
		}
	}

	got, err := parent.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cached parent corrupted by downstream mutation:\n got %v\nwant %v", got, want)
	}
	if hits := ctx.Cluster().Metrics().BlockHits.Load(); hits == 0 {
		t.Error("second Collect did not hit the cache; aliasing regression not exercised")
	}
}

// TestStageNamesCarryLineageTags checks that RDD jobs tag their stage names
// with the RDD id, so traces and stage history can be joined back to the
// lineage graph.
func TestStageNamesCarryLineageTags(t *testing.T) {
	cl := cluster.New(cluster.Config{Executors: 2})
	ctx := NewContext(cl)
	r := Parallelize(ctx, []int{1, 2, 3}, 2).SetName("nums")
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	h := cl.StageHistory()
	if len(h) == 0 {
		t.Fatal("no stage history")
	}
	want := fmt.Sprintf("@rdd%d", r.ID())
	last := h[len(h)-1].Name
	if !strings.Contains(last, want) {
		t.Errorf("stage name %q missing lineage tag %q", last, want)
	}
}
