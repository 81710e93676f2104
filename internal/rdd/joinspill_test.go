package rdd

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"adrdedup/internal/cluster"
)

// TestSpilledJoinMatchesReferenceOrder is the quick.Check property the
// budgeted Join rests on: for random key sets on both sides and random
// per-record byte sizes on the build side (which vary the chunk length
// against the fixed 256-byte budget, all the way down to one-record chunks),
// Join with SpillToDisk on must return exactly a nested-loop reference join in
// its emission order — each right record in turn, its matching left records
// in input order — and the trace must hold one join spill per budget-sized
// chunk of the build side. Values pin every record to its input position, so
// a reordered match shows.
func TestSpilledJoinMatchesReferenceOrder(t *testing.T) {
	const budget = 256
	cl := cluster.New(cluster.Config{Executors: 1, SpillToDisk: true, MemoryPerExecutorBytes: budget, Trace: true})
	defer cl.Close()
	ctx := NewContext(cl)

	prop := func(leftKeys, rightKeys []int8, bprSeed uint16) bool {
		// Few distinct keys -> many matches per key.
		left := make([]Pair[int64, int64], len(leftKeys))
		for i, k := range leftKeys {
			left[i] = Pair[int64, int64]{Key: int64(k) & 7, Value: int64(i)}
		}
		right := make([]Pair[int64, int64], len(rightKeys))
		for j, k := range rightKeys {
			right[j] = Pair[int64, int64]{Key: int64(k) & 7, Value: int64(-j)}
		}
		bytesPerRecord := int64(bprSeed)%512 + 1

		var want []Pair[int64, Tuple2[int64, int64]]
		for _, kw := range right {
			for _, kv := range left {
				if kv.Key == kw.Key {
					want = append(want, Pair[int64, Tuple2[int64, int64]]{
						Key: kw.Key, Value: Tuple2[int64, int64]{A: kv.Value, B: kw.Value}})
				}
			}
		}
		// An empty side proves the join partition empty, so no task runs.
		wantChunks := 0
		if n := int64(len(left)); len(right) > 0 && n*bytesPerRecord > budget {
			perChunk := max(budget/bytesPerRecord, 1)
			wantChunks = int((n + perChunk - 1) / perChunk)
		}

		cl.Tracer().Reset()
		got, err := Join(Parallelize(ctx, left, 1).WithBytesPerRecord(bytesPerRecord),
			Parallelize(ctx, right, 1), 1).Collect()
		if err != nil || !slices.Equal(got, want) {
			return false
		}
		chunks := 0
		for _, e := range cl.Tracer().Snapshot() {
			if e.Kind == cluster.EventSpill && strings.HasPrefix(e.Detail, "join p") {
				chunks++
			}
		}
		return chunks == wantChunks
	}
	if err := quick.Check(prop, &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(7)),
	}); err != nil {
		t.Fatal(err)
	}
}

// spillEnv builds two contexts over the same logical data: one unbounded, one
// with a pathological per-executor budget that forces shuffle and join
// spilling. Outputs must be bit-identical between them.
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

// TestSpillTraceEvents: a traced budgeted join must surface the spill tier
// in the event log — "spill" events when blocks and build-side chunks go to
// disk and "spill_load" events when they are read back — with the counter
// they summarize.
func TestSpillTraceEvents(t *testing.T) {
	cl := cluster.New(cluster.Config{
		Executors: 4, CoresPerExecutor: 1, Seed: 11, Trace: true,
		SpillToDisk: true, MemoryPerExecutorBytes: 512,
	})
	defer cl.Close()
	ctx := NewContext(cl)
	if _, err := overBudgetJoin(ctx).Collect(); err != nil {
		t.Fatal(err)
	}
	kinds := map[cluster.EventKind]int{}
	joinChunks := 0
	for _, e := range cl.Tracer().Snapshot() {
		kinds[e.Kind]++
		if e.Kind == cluster.EventSpill && strings.HasPrefix(e.Detail, "join p") {
			joinChunks++
		}
	}
	if kinds[cluster.EventSpill] == 0 {
		t.Error("no spill events in trace")
	}
	if kinds[cluster.EventSpillLoad] == 0 {
		t.Error("no spill_load events in trace")
	}
	if joinChunks == 0 {
		t.Error("no join chunk spilled; the build side never reached the spill tier")
	}
	m := cl.Metrics().Snapshot()
	if int64(kinds[cluster.EventSpill]) != m.SpillEvents {
		t.Errorf("trace has %d spill events, metrics count %d", kinds[cluster.EventSpill], m.SpillEvents)
	}
}

// overBudgetJoin joins spillInput with a filtered, negated copy of itself:
// its build side (300 records x 64 B) is over a 512 B budget while its
// output stays small enough to collect.
func overBudgetJoin(ctx *Context) *RDD[Pair[string, Tuple2[int64, int64]]] {
	right := Map(spillInput(ctx), func(p Pair[string, int64]) Pair[string, int64] {
		return Pair[string, int64]{Key: p.Key, Value: -p.Value}
	})
	return Join(spillInput(ctx), Filter(right, func(p Pair[string, int64]) bool {
		return p.Value%5 == 0
	}), 3)
}

// TestJoinSpillMatchesUnbounded runs the same over-budget join with and
// without the memory budget; the collected outputs must match exactly, and
// only the budgeted run may spill.
func TestJoinSpillMatchesUnbounded(t *testing.T) {
	un, ti := spillEnv(t)
	run := func(ctx *Context) []Pair[string, Tuple2[int64, int64]] {
		out, err := overBudgetJoin(ctx).Collect()
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
		t.Fatal("budgeted join recorded no spills; over-budget path not exercised")
	}
	if m := un.Cluster().Metrics().Snapshot(); m.SpillEvents != 0 {
		t.Fatalf("unbounded run recorded %d spills", m.SpillEvents)
	}
}

// TestSpilledJoinRecoversFromExecutorLoss: killing the hosts of a budgeted
// join's map outputs makes the next collect recompute them from lineage and
// re-run the budgeted join, with output identical to the first run and the
// join's build side spilled both times.
func TestSpilledJoinRecoversFromExecutorLoss(t *testing.T) {
	cl := cluster.New(cluster.Config{
		Executors: 4, CoresPerExecutor: 1, Seed: 11, Trace: true,
		SpillToDisk: true, MemoryPerExecutorBytes: 512, ExecutorRecoveryStages: 1000,
	})
	defer cl.Close()
	joined := overBudgetJoin(NewContext(cl))
	joinChunks := func() int {
		n := 0
		for _, e := range cl.Tracer().Snapshot() {
			if e.Kind == cluster.EventSpill && strings.HasPrefix(e.Detail, "join p") {
				n++
			}
		}
		return n
	}
	want, err := joined.Collect()
	if err != nil {
		t.Fatal(err)
	}
	first := joinChunks()
	if first == 0 {
		t.Fatal("no join chunk spilled; the build side never reached the spill tier")
	}
	killAllButOne(t, cl)
	got, err := joined.Collect()
	if err != nil {
		t.Fatalf("collect after executor loss: %v", err)
	}
	if recomputeStages(cl) == 0 {
		t.Fatal("executor loss recomputed nothing; test is vacuous")
	}
	if joinChunks() == first {
		t.Error("re-run join spilled no chunk")
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
}
