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

// chunkSizes returns the partition sizes Parallelize gives n elements over p
// partitions.
func chunkSizes(n, p int) []int {
	out := make([]int, p)
	for i := range out {
		out[i] = (i+1)*n/p - i*n/p
	}
	return out
}

// bucketSizes counts keys per hash bucket of n, the reference for a shuffle
// output's partition sizes.
func bucketSizes(keys []int, n int) []int {
	out := make([]int, n)
	for _, k := range keys {
		out[hashKey(k)%uint64(n)]++
	}
	return out
}

// TestPartitionCountFixedAtBuild pins that every operator's partition count
// is decided when the RDD is built: NumPartitions reports it before any job
// runs and is unchanged afterwards, and a job over the RDD returns one result
// per partition, each partition's size equal to a driver-side reference —
// also under a small spilling memory budget, where shuffle output is tiny.
// The result stage launches exactly one task per partition that holds a
// record (every partition here that is not proven empty holds one), and a
// partition proven empty gets an empty result. Hash-partitioned outputs also
// keep every record in its key's own bucket.
func TestPartitionCountFixedAtBuild(t *testing.T) {
	pairs := kvPairs(120, 17)
	keys := make([]int, len(pairs))
	for i, kv := range pairs {
		keys[i] = kv.Key
	}
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
	// Reference partition sizes, computed on the driver.
	scale := func(sizes []int, f func(int) int) []int {
		out := make([]int, len(sizes))
		for i, n := range sizes {
			out[i] = f(n)
		}
		return out
	}
	evens := make([]int, 5)
	for i, n := range chunkSizes(120, 5) {
		lo := i * 120 / 5
		for _, kv := range pairs[lo : lo+n] {
			if kv.Value%2 == 0 {
				evens[i]++
			}
		}
	}
	var cart []int
	for _, a := range chunkSizes(120, 3) {
		for _, b := range chunkSizes(4, 2) {
			cart = append(cart, a*b)
		}
	}
	distinct := make([]int, 17)
	for i := range distinct {
		distinct[i] = i
	}
	cases := []struct {
		name  string
		want  int
		sizes []int
		build func(ctx *Context) built
	}{
		{"parallelize", 5, chunkSizes(120, 5), func(ctx *Context) built { return of(Parallelize(ctx, pairs, 5), false) }},
		{"map+filter", 5, evens, func(ctx *Context) built {
			r := Filter(Map(Parallelize(ctx, pairs, 5), func(kv Pair[int, int]) Pair[int, int] { return kv }),
				func(kv Pair[int, int]) bool { return kv.Value%2 == 0 })
			return of(r, false)
		}},
		{"flatMap", 5, scale(chunkSizes(120, 5), func(n int) int { return 2 * n }), func(ctx *Context) built {
			r := FlatMap(Parallelize(ctx, pairs, 5), func(kv Pair[int, int]) []Pair[int, int] { return []Pair[int, int]{kv, kv} })
			return of(r, false)
		}},
		{"mapPartitions", 5, scale(chunkSizes(120, 5), func(n int) int { return n / 2 }), func(ctx *Context) built {
			r := MapPartitions(Parallelize(ctx, pairs, 5), func(in []Pair[int, int]) ([]Pair[int, int], error) {
				return in[:len(in)/2], nil
			})
			return of(r, false)
		}},
		{"mapPartitionsTC", 5, []int{1, 1, 1, 1, 1}, func(ctx *Context) built {
			r := MapPartitionsTC(Parallelize(ctx, pairs, 5), func(_ *cluster.TaskContext, p int, in []Pair[int, int]) ([]Pair[int, int], error) {
				return []Pair[int, int]{KV(p, len(in))}, nil
			})
			return of(r, false)
		}},
		{"union", 7, append(chunkSizes(120, 3), chunkSizes(120, 4)...), func(ctx *Context) built {
			return of(Union(Parallelize(ctx, pairs, 3), Parallelize(ctx, pairs, 4)), false)
		}},
		{"cartesian", 6, cart, func(ctx *Context) built {
			r := Cartesian(Parallelize(ctx, pairs, 3), Parallelize(ctx, ints(4), 2))
			return built{nparts: r.NumPartitions, sizes: func() ([]int, error) { return partitionSizes(r) }}
		}},
		{"partitionBy", 6, bucketSizes(keys, 6), func(ctx *Context) built {
			return of(PartitionBy(Parallelize(ctx, pairs, 4), 6), true)
		}},
		{"cache", 6, bucketSizes(keys, 6), func(ctx *Context) built {
			return of(PartitionBy(Parallelize(ctx, pairs, 4), 6).Cache(), true)
		}},
		{"reduceByKey", 8, bucketSizes(distinct, 8), func(ctx *Context) built {
			return of(ReduceByKey(Parallelize(ctx, pairs, 4), add, 8), true)
		}},
		// Every key of the left side meets exactly one reduced right row.
		{"join", 3, bucketSizes(keys, 3), func(ctx *Context) built {
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
			if !reflect.DeepEqual(sizes, tc.sizes) {
				t.Errorf("partition sizes = %v, reference %v", sizes, tc.sizes)
			}
			nonEmpty := 0
			for _, n := range tc.sizes {
				if n > 0 {
					nonEmpty++
				}
			}
			hist := cl.StageHistory()
			if last := hist[len(hist)-1]; last.Tasks != nonEmpty {
				t.Errorf("result stage %q ran %d tasks, want one per non-empty partition (%d)",
					last.Name, last.Tasks, nonEmpty)
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
			if len(parts) != tc.want {
				t.Errorf("job returned %d partitions, want %d", len(parts), tc.want)
			}
			for p, keys := range parts {
				if tc.sizes[p] == 0 && keys != nil {
					t.Errorf("empty partition %d returned %v, want the zero value", p, keys)
				}
				for _, k := range keys {
					if want := int(hashKey(k) % uint64(tc.want)); want != p {
						t.Errorf("key %d read by partition %d, its bucket is %d", k, p, want)
					}
				}
			}
		})
	}
}
