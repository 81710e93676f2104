package rdd

import (
	"reflect"
	"strings"
	"testing"

	"adrdedup/internal/cluster"
)

// withFusion runs the test body with fusion forced on or off, restoring the
// previous setting afterwards. Tests that flip the flag must not be parallel.
func withFusion(t *testing.T, on bool) {
	t.Helper()
	prev := SetFusionEnabled(on)
	t.Cleanup(func() { SetFusionEnabled(prev) })
}

// TestFusedStageNames: a narrow chain collapses into one fused stage whose
// name joins the operators with "+" from the boundary RDD.
func TestFusedStageNames(t *testing.T) {
	withFusion(t, true)
	cl := cluster.New(cluster.Config{Executors: 2})
	ctx := NewContext(cl)

	reports := Parallelize(ctx, []int{1, 2, 3, 4, 5, 6}, 2).SetName("reports")
	chain := Map(Filter(Map(reports, func(v int) int { return v * 2 }),
		func(v int) bool { return v%4 == 0 }),
		func(v int) int { return v + 1 })
	if _, err := chain.Collect(); err != nil {
		t.Fatal(err)
	}

	h := cl.StageHistory()
	last := h[len(h)-1].Name
	if !strings.Contains(last, "reports.map+filter+map") {
		t.Errorf("stage name %q does not carry the fused chain label", last)
	}
	if !strings.Contains(last, "@rdd") {
		t.Errorf("stage name %q lost its lineage tag", last)
	}
}

// TestMapTCFusesAndCharges: MapTC fuses like Map, and the work its function
// counts on the TaskContext is charged to the stage's virtual compute.
func TestMapTCFusesAndCharges(t *testing.T) {
	withFusion(t, true)
	run := func(distances int64) ([]int, cluster.StageStats) {
		cl := cluster.New(cluster.Config{Executors: 2})
		ctx := NewContext(cl)
		reports := Parallelize(ctx, []int{1, 2, 3, 4, 5, 6}, 2).SetName("reports")
		chain := Map(MapTC(reports, func(tc *cluster.TaskContext, v int) int {
			tc.AddDistances(distances)
			return v * 2
		}), func(v int) int { return v + 1 })
		got, err := chain.Collect()
		if err != nil {
			t.Fatal(err)
		}
		h := cl.StageHistory()
		return got, h[len(h)-1]
	}
	got, counted := run(1000)
	want, plain := run(0)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, []int{3, 5, 7, 9, 11, 13}) {
		t.Errorf("MapTC chain = %v, Map chain = %v", got, want)
	}
	if !strings.Contains(counted.Name, "reports.map+map") {
		t.Errorf("stage name %q does not carry the fused chain label", counted.Name)
	}
	if counted.ComputeDuration <= plain.ComputeDuration {
		t.Errorf("6,000 counted distances charged %v of compute, none counted %v",
			counted.ComputeDuration, plain.ComputeDuration)
	}
}

// TestCacheIsFusionBoundary: caching mid-chain must split fusion there — the
// cached RDD's partitions land in the block store and downstream reads come
// from cache, while results stay identical.
func TestCacheIsFusionBoundary(t *testing.T) {
	withFusion(t, true)
	cl := cluster.New(cluster.Config{Executors: 2})
	ctx := NewContext(cl)

	base := Parallelize(ctx, []int{1, 2, 3, 4, 5, 6, 7, 8}, 2).SetName("base")
	mid := Map(base, func(v int) int { return v * 10 }).Cache()
	tail := Filter(mid, func(v int) bool { return v%20 == 0 })

	want := []int{20, 40, 60, 80}
	got, err := tail.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("first collect = %v, want %v", got, want)
	}

	// The chain label must show a boundary (dot) at the cached RDD, not a
	// fused "+" through it.
	h := cl.StageHistory()
	last := h[len(h)-1].Name
	if !strings.Contains(last, "base.map.filter") {
		t.Errorf("stage name %q should split the chain at the cached RDD", last)
	}

	got2, err := tail.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("second collect = %v, want %v", got2, want)
	}
	if cl.Metrics().BlockHits.Load() == 0 {
		t.Error("second collect did not read the cached boundary partitions")
	}
}

// TestSetNameOverridesFusedLabel: SetName replaces the derived chain label.
func TestSetNameOverridesFusedLabel(t *testing.T) {
	withFusion(t, true)
	cl := cluster.New(cluster.Config{Executors: 2})
	ctx := NewContext(cl)
	r := Map(Parallelize(ctx, []int{1, 2}, 1), func(v int) int { return v }).SetName("renamed")
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	h := cl.StageHistory()
	if last := h[len(h)-1].Name; !strings.Contains(last, "renamed.collect") {
		t.Errorf("stage name %q should use the SetName override", last)
	}
}

// buildNarrowChain is the 3-operator chain shared by the allocation test and
// BenchmarkNarrowChain.
func buildNarrowChain(ctx *Context, data []int, parts int) *RDD[int] {
	base := Parallelize(ctx, data, parts)
	m1 := Map(base, func(v int) int { return v*3 + 1 })
	f := Filter(m1, func(v int) bool { return v&1 == 0 })
	return Map(f, func(v int) int { return v >> 1 })
}

// TestFusionReducesAllocations pins the PR's acceptance criterion: the fused
// 3-operator chain must allocate at least 30% less than the unfused baseline
// when computing a partition.
func TestFusionReducesAllocations(t *testing.T) {
	data := make([]int, 4096)
	for i := range data {
		data[i] = i
	}
	ctx := NewContext(cluster.New(cluster.Config{Executors: 1}))
	chain := buildNarrowChain(ctx, data, 1)
	tc := &cluster.TaskContext{}

	measure := func(fused bool) float64 {
		prev := SetFusionEnabled(fused)
		defer SetFusionEnabled(prev)
		return testing.AllocsPerRun(20, func() {
			if _, err := chain.compute(tc, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	unfused := measure(false)
	fused := measure(true)
	t.Logf("allocs/partition: unfused %.1f, fused %.1f", unfused, fused)
	if fused > 0.7*unfused {
		t.Errorf("fusion saves too little: fused %.1f allocs vs unfused %.1f (need >=30%% fewer)",
			fused, unfused)
	}
}

// TestCartesianStreamsThroughFilter: a Cartesian followed by fused narrow
// operators produces the same result as the materializing baseline.
func TestCartesianStreamsThroughFilter(t *testing.T) {
	run := func(fused bool) []int {
		t.Helper()
		prev := SetFusionEnabled(fused)
		defer SetFusionEnabled(prev)
		ctx := NewContext(cluster.New(cluster.Config{Executors: 2}))
		a := Parallelize(ctx, []int{1, 2, 3, 4, 5}, 2)
		b := Parallelize(ctx, []int{10, 20, 30}, 2)
		pairs := Cartesian(a, b)
		kept := Filter(pairs, func(p Tuple2[int, int]) bool { return (p.A+p.B)%2 == 1 })
		sums := Map(kept, func(p Tuple2[int, int]) int { return p.A + p.B })
		got, err := sums.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	fused, unfused := run(true), run(false)
	if !reflect.DeepEqual(fused, unfused) {
		t.Errorf("fused cartesian chain %v != unfused %v", fused, unfused)
	}
	if len(fused) == 0 {
		t.Error("test is vacuous: no pairs survived the filter")
	}
}
