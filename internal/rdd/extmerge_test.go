package rdd

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"adrdedup/internal/cluster"
)

// TestExternalSortMatchesSliceStable is the quick.Check property the external
// merge's correctness rests on: for random key sets and per-record byte sizes
// (which vary the effective run length against the fixed 256-byte budget, all
// the way down to one-record runs), the spilled-run merge must be
// element-identical to sort.SliceStable over the same input — including the
// order of equal keys, which the Value field pins to the input position.
func TestExternalSortMatchesSliceStable(t *testing.T) {
	cl := cluster.New(cluster.Config{Executors: 1, SpillToDisk: true, MemoryPerExecutorBytes: 256})
	defer cl.Close()
	less := func(a, b Pair[int64, int64]) bool { return a.Key < b.Key }

	prop := func(keys []int64, bprSeed uint16) bool {
		data := make([]Pair[int64, int64], len(keys))
		for i, k := range keys {
			// Few distinct keys -> many ties; Value = input position makes
			// any stability violation visible.
			data[i] = Pair[int64, int64]{Key: ((k % 16) + 16) % 16, Value: int64(i)}
		}
		bytesPerRecord := int64(bprSeed)%512 + 1

		want := append([]Pair[int64, int64](nil), data...)
		sort.SliceStable(want, func(i, j int) bool { return less(want[i], want[j]) })

		var got []Pair[int64, int64]
		_, err := cl.RunStage("extsort.prop", 1, func(tc *cluster.TaskContext) error {
			got = externalSortStable(tc, cl, "prop",
				append([]Pair[int64, int64](nil), data...), bytesPerRecord, less)
			return nil
		})
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(7)),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestExternalSortSpillsAndCharges pins the mechanism: a partition 16x over
// budget must actually write spill runs (counters and virtual disk time),
// not quietly sort in memory.
func TestExternalSortSpillsAndCharges(t *testing.T) {
	cl := cluster.New(cluster.Config{Executors: 1, SpillToDisk: true, MemoryPerExecutorBytes: 256})
	defer cl.Close()
	data := make([]Pair[int64, int64], 64)
	for i := range data {
		data[i] = Pair[int64, int64]{Key: int64(len(data) - i), Value: int64(i)}
	}
	_, err := cl.RunStage("extsort.spills", 1, func(tc *cluster.TaskContext) error {
		out := externalSortStable(tc, cl, "spills", data, 64, func(a, b Pair[int64, int64]) bool {
			return a.Key < b.Key
		})
		for i := 1; i < len(out); i++ {
			if out[i].Key < out[i-1].Key {
				t.Errorf("output not sorted at %d: %v > %v", i, out[i-1], out[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := cl.Metrics().Snapshot()
	if m.SpillEvents == 0 || m.SpilledBytes == 0 {
		t.Fatalf("SpillEvents/SpilledBytes = %d/%d, want both > 0", m.SpillEvents, m.SpilledBytes)
	}
}

// spillEnv builds two contexts over the same logical data: one unbounded, one
// with a pathological per-executor budget that forces block-cache, shuffle,
// and external-merge spilling. Outputs must be bit-identical between them.
func spillEnv(t *testing.T) (unbounded, tight *Context) {
	t.Helper()
	cu := cluster.New(cluster.Config{Executors: 4, CoresPerExecutor: 1, Seed: 11})
	ct := cluster.New(cluster.Config{Executors: 4, CoresPerExecutor: 1, Seed: 11,
		SpillToDisk: true, MemoryPerExecutorBytes: 512})
	t.Cleanup(func() { cu.Close(); ct.Close() })
	return NewContext(cu), NewContext(ct)
}

func spillInput(ctx *Context) *RDD[Pair[string, int64]] {
	vals := make([]Pair[string, int64], 300)
	for i := range vals {
		vals[i] = Pair[string, int64]{Key: string(rune('a' + i%7)), Value: int64(i * 13 % 97)}
	}
	return Parallelize(ctx, vals, 6)
}

// TestSortBySpillMatchesUnbounded runs the same SortBy pipeline with and
// without the memory budget; the collected outputs must match exactly.
func TestSortBySpillMatchesUnbounded(t *testing.T) {
	un, ti := spillEnv(t)
	run := func(ctx *Context) []Pair[string, int64] {
		sorted := SortBy(spillInput(ctx), func(a, b Pair[string, int64]) bool {
			if a.Key != b.Key {
				return a.Key < b.Key
			}
			return a.Value < b.Value
		}, 4)
		out, err := sorted.Collect()
		if err != nil {
			t.Fatalf("collect: %v", err)
		}
		return out
	}
	want := run(un)
	got := run(ti)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
	if m := ti.Cluster().Metrics().Snapshot(); m.SpillEvents == 0 {
		t.Fatal("budgeted run recorded no spills; external path not exercised")
	}
	if m := un.Cluster().Metrics().Snapshot(); m.SpillEvents != 0 {
		t.Fatalf("unbounded run recorded %d spills", m.SpillEvents)
	}
}

// TestSpillTraceEvents: a traced budgeted pipeline must surface the spill
// tier in the event log — "spill" events when blocks go to disk and
// "spill_load" events when they are read back — with the counter they
// summarize.
func TestSpillTraceEvents(t *testing.T) {
	cl := cluster.New(cluster.Config{
		Executors: 4, CoresPerExecutor: 1, Seed: 11, Trace: true,
		SpillToDisk: true, MemoryPerExecutorBytes: 512,
	})
	defer cl.Close()
	sorted := SortBy(spillInput(NewContext(cl)), func(a, b Pair[string, int64]) bool {
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Value < b.Value
	}, 4)
	if _, err := sorted.Collect(); err != nil {
		t.Fatal(err)
	}
	kinds := map[cluster.EventKind]int{}
	for _, e := range cl.Tracer().Snapshot() {
		kinds[e.Kind]++
	}
	if kinds[cluster.EventSpill] == 0 {
		t.Error("no spill events in trace")
	}
	if kinds[cluster.EventSpillLoad] == 0 {
		t.Error("no spill_load events in trace")
	}
	m := cl.Metrics().Snapshot()
	if int64(kinds[cluster.EventSpill]) != m.SpillEvents {
		t.Errorf("trace has %d spill events, metrics count %d", kinds[cluster.EventSpill], m.SpillEvents)
	}
}

// TestJoinSpillMatchesUnbounded does the same for the external join path.
func TestJoinSpillMatchesUnbounded(t *testing.T) {
	un, ti := spillEnv(t)
	run := func(ctx *Context) []Pair[string, Tuple2[int64, int64]] {
		left := spillInput(ctx)
		right := Map(spillInput(ctx), func(p Pair[string, int64]) Pair[string, int64] {
			return Pair[string, int64]{Key: p.Key, Value: -p.Value}
		})
		// Keep the join's own output small enough to collect but its build
		// side over budget (300 records x 64 B > 512 B).
		joined := Join(left, Filter(right, func(p Pair[string, int64]) bool {
			return p.Value%5 == 0
		}), 3)
		out, err := joined.Collect()
		if err != nil {
			t.Fatalf("collect: %v", err)
		}
		return out
	}
	want := run(un)
	got := run(ti)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
	if m := ti.Cluster().Metrics().Snapshot(); m.SpillEvents == 0 {
		t.Fatal("budgeted join recorded no spills; external path not exercised")
	}
}
