package rdd

import (
	"reflect"
	"sort"
	"testing"

	"adrdedup/internal/cluster"
)

func testCtx() *Context {
	return NewContext(cluster.New(cluster.Config{Executors: 4, CoresPerExecutor: 2}))
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizeCollectRoundTrip(t *testing.T) {
	ctx := testCtx()
	data := ints(100)
	r := Parallelize(ctx, data, 7)
	if r.NumPartitions() != 7 {
		t.Fatalf("partitions = %d, want 7", r.NumPartitions())
	}
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, data) {
		t.Errorf("Collect changed data or order")
	}
}

func TestParallelizeEmptyAndSmall(t *testing.T) {
	ctx := testCtx()
	empty, err := Parallelize(ctx, []int(nil), 4).Collect()
	if err != nil || len(empty) != 0 {
		t.Errorf("empty Collect = %v, %v", empty, err)
	}
	small := Parallelize(ctx, []int{1, 2}, 10)
	if small.NumPartitions() > 2 {
		t.Errorf("partitions %d should be capped at data length", small.NumPartitions())
	}
	got, err := small.Collect()
	if err != nil || !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("small Collect = %v, %v", got, err)
	}
}

func TestMapFilterFlatMap(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, ints(20), 3)
	doubled, err := Map(r, func(x int) int { return 2 * x }).Collect()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range doubled {
		if v != 2*i {
			t.Fatalf("Map wrong at %d: %d", i, v)
		}
	}
	evens, err := Filter(r, func(x int) bool { return x%2 == 0 }).Collect()
	if err != nil || len(evens) != 10 {
		t.Errorf("Filter count = %d, %v", len(evens), err)
	}
	pairs, err := FlatMap(r, func(x int) []int { return []int{x, x} }).Collect()
	if err != nil || len(pairs) != 40 {
		t.Errorf("FlatMap count = %d, %v", len(pairs), err)
	}
}

func TestMapFusionProperty(t *testing.T) {
	// map(f) then map(g) must equal map(g∘f) — the lazy-evaluation law.
	ctx := testCtx()
	r := Parallelize(ctx, ints(50), 4)
	f := func(x int) int { return x + 3 }
	g := func(x int) int { return x * 2 }
	a, err := Map(Map(r, f), g).Collect()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Map(r, func(x int) int { return g(f(x)) }).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("map fusion law violated")
	}
}

func TestMapPartitionsTCPartitionIndex(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, ints(10), 3)
	got, err := MapPartitionsTC(r, func(_ *cluster.TaskContext, p int, in []int) ([]int, error) {
		out := make([]int, len(in))
		for i := range in {
			out[i] = p
		}
		return out, nil
	}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	if !sort.IntsAreSorted(got) {
		t.Errorf("partition indices not in partition order: %v", got)
	}
}

func TestUnionCountAdditive(t *testing.T) {
	ctx := testCtx()
	a := Parallelize(ctx, ints(30), 3)
	b := Parallelize(ctx, ints(20), 2)
	u := Union(a, b)
	if u.NumPartitions() != 5 {
		t.Errorf("union partitions = %d, want 5", u.NumPartitions())
	}
	got, err := u.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Errorf("union count = %d, want 50", len(got))
	}
	want := append(append([]int{}, ints(30)...), ints(20)...)
	if !reflect.DeepEqual(got, want) {
		t.Error("union order should be a-then-b")
	}
}

func TestCartesian(t *testing.T) {
	ctx := testCtx()
	a := Parallelize(ctx, []int{1, 2, 3}, 2)
	b := Parallelize(ctx, []string{"x", "y"}, 2)
	got, err := Cartesian(a, b).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("cartesian size = %d, want 6", len(got))
	}
	seen := make(map[Tuple2[int, string]]bool)
	for _, p := range got {
		seen[p] = true
	}
	for _, x := range []int{1, 2, 3} {
		for _, y := range []string{"x", "y"} {
			if !seen[Tuple2[int, string]{x, y}] {
				t.Errorf("missing pair (%d,%s)", x, y)
			}
		}
	}
}

func TestBoundedMin(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	data := []int{9, 1, 8, 2, 7, 3, 6, 4, 5, 0}
	if got := BoundedMin(data, 3, less); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("BoundedMin n=3 = %v", got)
	}
	if got := BoundedMin(data, 0, less); got != nil {
		t.Errorf("BoundedMin n=0 = %v", got)
	}
	if got := BoundedMin([]int{5}, 3, less); !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("BoundedMin short input = %v", got)
	}
}

// partitionSizes runs one job over r and returns each partition's record
// count, in partition order.
func partitionSizes[T any](r *RDD[T]) ([]int, error) {
	return RunJob(r, "sizes", func(_ *cluster.TaskContext, _ int, data []T) (int, error) {
		return len(data), nil
	})
}

// TestPartitionCountFixedAtBuild pins that every operator's partition count
// is decided when the RDD is built: NumPartitions reports it before any job
// runs, a job over the RDD runs exactly that many result tasks — also under
// a small spilling memory budget, where shuffle output is tiny — and the
// count is unchanged afterwards. Hash-partitioned outputs also keep every
// record in its key's own bucket.
func TestPartitionCountFixedAtBuild(t *testing.T) {
	pairs := kvPairs(120, 17)
	add := func(a, b int) int { return a + b }
	type built struct {
		nparts  func() int
		sizes   func() ([]int, error)
		buckets func() ([][]int, error) // keys per partition; nil when not hash-partitioned
	}
	keysOf := func(r *RDD[Pair[int, int]]) func() ([][]int, error) {
		return func() ([][]int, error) {
			return RunJob(r, "keys", func(_ *cluster.TaskContext, _ int, data []Pair[int, int]) ([]int, error) {
				keys := make([]int, len(data))
				for i, kv := range data {
					keys[i] = kv.Key
				}
				return keys, nil
			})
		}
	}
	of := func(r *RDD[Pair[int, int]], hashed bool) built {
		b := built{nparts: r.NumPartitions, sizes: func() ([]int, error) { return partitionSizes(r) }}
		if hashed {
			b.buckets = keysOf(r)
		}
		return b
	}
	cases := []struct {
		name    string
		want    int
		records int
		build   func(ctx *Context) built
	}{
		{"parallelize", 5, 120, func(ctx *Context) built { return of(Parallelize(ctx, pairs, 5), false) }},
		{"map+filter", 5, 60, func(ctx *Context) built {
			r := Filter(Map(Parallelize(ctx, pairs, 5), func(kv Pair[int, int]) Pair[int, int] { return kv }),
				func(kv Pair[int, int]) bool { return kv.Value%2 == 0 })
			return of(r, false)
		}},
		{"flatMap", 5, 240, func(ctx *Context) built {
			r := FlatMap(Parallelize(ctx, pairs, 5), func(kv Pair[int, int]) []Pair[int, int] { return []Pair[int, int]{kv, kv} })
			return of(r, false)
		}},
		{"mapPartitions", 5, 60, func(ctx *Context) built {
			r := MapPartitions(Parallelize(ctx, pairs, 5), func(in []Pair[int, int]) ([]Pair[int, int], error) {
				return in[:len(in)/2], nil
			})
			return of(r, false)
		}},
		{"mapPartitionsTC", 5, 5, func(ctx *Context) built {
			r := MapPartitionsTC(Parallelize(ctx, pairs, 5), func(_ *cluster.TaskContext, p int, in []Pair[int, int]) ([]Pair[int, int], error) {
				return []Pair[int, int]{KV(p, len(in))}, nil
			})
			return of(r, false)
		}},
		{"union", 7, 240, func(ctx *Context) built {
			return of(Union(Parallelize(ctx, pairs, 3), Parallelize(ctx, pairs, 4)), false)
		}},
		{"cartesian", 6, 120 * 4, func(ctx *Context) built {
			r := Cartesian(Parallelize(ctx, pairs, 3), Parallelize(ctx, ints(4), 2))
			return built{nparts: r.NumPartitions, sizes: func() ([]int, error) { return partitionSizes(r) }}
		}},
		{"partitionBy", 6, 120, func(ctx *Context) built {
			return of(PartitionBy(Parallelize(ctx, pairs, 4), 6), true)
		}},
		{"cache", 6, 120, func(ctx *Context) built {
			return of(PartitionBy(Parallelize(ctx, pairs, 4), 6).Cache(), true)
		}},
		{"reduceByKey", 8, 17, func(ctx *Context) built {
			return of(ReduceByKey(Parallelize(ctx, pairs, 4), add, 8), true)
		}},
		{"join", 3, 120, func(ctx *Context) built {
			r := Join(Parallelize(ctx, pairs, 4), ReduceByKey(Parallelize(ctx, pairs, 2), add, 5), 3)
			return built{nparts: r.NumPartitions, sizes: func() ([]int, error) { return partitionSizes(r) }}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := cluster.New(cluster.Config{
				Executors: 3, CoresPerExecutor: 2, Seed: 5,
				SpillToDisk: true, MemoryPerExecutorBytes: 256,
			})
			defer cl.Close()
			b := tc.build(NewContext(cl))
			if got := b.nparts(); got != tc.want {
				t.Fatalf("NumPartitions before any job = %d, want %d", got, tc.want)
			}
			sizes, err := b.sizes()
			if err != nil {
				t.Fatal(err)
			}
			if len(sizes) != tc.want {
				t.Errorf("job returned %d partitions, want %d", len(sizes), tc.want)
			}
			total := 0
			for _, n := range sizes {
				total += n
			}
			if total != tc.records {
				t.Errorf("records = %d, want %d", total, tc.records)
			}
			hist := cl.StageHistory()
			if last := hist[len(hist)-1]; last.Tasks != tc.want {
				t.Errorf("result stage %q ran %d tasks, want %d", last.Name, last.Tasks, tc.want)
			}
			if got := b.nparts(); got != tc.want {
				t.Errorf("NumPartitions after the job = %d, want %d", got, tc.want)
			}
			if b.buckets == nil {
				return
			}
			parts, err := b.buckets()
			if err != nil {
				t.Fatal(err)
			}
			for p, keys := range parts {
				for _, k := range keys {
					if want := int(hashKey(k) % uint64(tc.want)); want != p {
						t.Errorf("key %d read by partition %d, its bucket is %d", k, p, want)
					}
				}
			}
		})
	}
}
