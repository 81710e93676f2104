package rdd

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"adrdedup/internal/cluster"
)

// refBuckets is the driver-side reference of PartitionBy(data, n): each
// bucket holds its keys' records in input order.
func refBuckets(data []Pair[int, int], n int) [][]Pair[int, int] {
	out := make([][]Pair[int, int], n)
	for _, kv := range data {
		b := hashKey(kv.Key) % uint64(n)
		out[b] = append(out[b], kv)
	}
	return out
}

// partsOf runs one job over r and returns each partition's records
// formatted, in partition order; sorted sorts within each partition for
// operators whose in-partition order is not part of their contract.
func partsOf[T any](r *RDD[T], sorted bool) ([][]string, error) {
	return RunJob(r, "parts", func(_ *cluster.TaskContext, _ int, data []T) ([]string, error) {
		out := make([]string, len(data))
		for i, v := range data {
			out[i] = fmt.Sprint(v)
		}
		if sorted {
			sort.Strings(out)
		}
		return out, nil
	})
}

// format renders a per-partition reference the way partsOf renders a job.
func format[T any](parts [][]T, sorted bool) [][]string {
	out := make([][]string, len(parts))
	for p, data := range parts {
		for _, v := range data {
			out[p] = append(out[p], fmt.Sprint(v))
		}
		if sorted {
			sort.Strings(out[p])
		}
	}
	return out
}

func mapParts[T, U any](parts [][]T, f func(T) []U) [][]U {
	out := make([][]U, len(parts))
	for p, data := range parts {
		for _, v := range data {
			out[p] = append(out[p], f(v)...)
		}
	}
	return out
}

func nonEmptyParts(parts [][]string) int {
	n := 0
	for _, p := range parts {
		if len(p) > 0 {
			n++
		}
	}
	return n
}

// TestEmptyPartitionsLaunchNoTask runs each operator that knows its empty
// partitions over keyed inputs that fill only some hash buckets. Each job's
// partitions equal a driver-side reference — a partition proven empty comes
// back as nil — and the result stage launches exactly one task per
// non-empty partition.
func TestEmptyPartitionsLaunchNoTask(t *testing.T) {
	const n = 8
	left := kvPairs(60, 3)  // keys 0..2: at most 3 of the 8 buckets
	right := kvPairs(40, 5) // keys 0..4, a superset of left's
	sum := func(a, b int) int { return a + b }
	shuffled := refBuckets(left, n)
	sums := func(data []Pair[int, int], n int) [][]Pair[int, int] {
		acc := map[int]int{}
		var keys []int
		for _, kv := range data {
			if _, ok := acc[kv.Key]; !ok {
				keys = append(keys, kv.Key)
			}
			acc[kv.Key] += kv.Value
		}
		out := make([]Pair[int, int], len(keys))
		for i, k := range keys {
			out[i] = KV(k, acc[k])
		}
		return refBuckets(out, n)
	}
	joined := make([][]Pair[int, Tuple2[int, int]], n)
	for p, rs := range refBuckets(right, n) {
		for _, r := range rs {
			for _, l := range shuffled[p] {
				if l.Key == r.Key {
					joined[p] = append(joined[p], KV(r.Key, Tuple2[int, int]{l.Value, r.Value}))
				}
			}
		}
	}
	cases := []struct {
		name string
		run  func(ctx *Context) ([][]string, error)
		want [][]string
	}{
		{"partitionBy", func(ctx *Context) ([][]string, error) {
			return partsOf(PartitionBy(Parallelize(ctx, left, 4), n), false)
		}, format(shuffled, false)},
		{"map", func(ctx *Context) ([][]string, error) {
			r := Map(PartitionBy(Parallelize(ctx, left, 4), n), func(kv Pair[int, int]) int { return kv.Value * 10 })
			return partsOf(r, false)
		}, format(mapParts(shuffled, func(kv Pair[int, int]) []int { return []int{kv.Value * 10} }), false)},
		{"filter", func(ctx *Context) ([][]string, error) {
			r := Filter(PartitionBy(Parallelize(ctx, left, 4), n), func(kv Pair[int, int]) bool { return kv.Value%2 == 0 })
			return partsOf(r, false)
		}, format(mapParts(shuffled, func(kv Pair[int, int]) []Pair[int, int] {
			if kv.Value%2 == 0 {
				return []Pair[int, int]{kv}
			}
			return nil
		}), false)},
		{"flatMap", func(ctx *Context) ([][]string, error) {
			r := FlatMap(PartitionBy(Parallelize(ctx, left, 4), n), func(kv Pair[int, int]) []int { return []int{kv.Key, kv.Value} })
			return partsOf(r, false)
		}, format(mapParts(shuffled, func(kv Pair[int, int]) []int { return []int{kv.Key, kv.Value} }), false)},
		{"cache", func(ctx *Context) ([][]string, error) {
			r := PartitionBy(Parallelize(ctx, left, 4), n).Cache()
			first, err := partsOf(r, false)
			if err != nil {
				return nil, err
			}
			again, err := partsOf(r, false) // served from the block store
			if err == nil && !reflect.DeepEqual(first, again) {
				err = fmt.Errorf("cached read %v differs from the first %v", again, first)
			}
			return again, err
		}, format(shuffled, false)},
		{"union", func(ctx *Context) ([][]string, error) {
			r := Union(PartitionBy(Parallelize(ctx, left, 4), n), PartitionBy(Parallelize(ctx, right, 3), n))
			return partsOf(r, false)
		}, format(append(append([][]Pair[int, int]{}, shuffled...), refBuckets(right, n)...), false)},
		{"reduceByKey", func(ctx *Context) ([][]string, error) {
			return partsOf(ReduceByKey(Parallelize(ctx, left, 4), sum, n), true)
		}, format(sums(left, n), true)},
		// Both combine steps over a hash-partitioned input with empty
		// buckets: the map stage skips them too.
		{"reduceByKeyAfterShuffle", func(ctx *Context) ([][]string, error) {
			return partsOf(ReduceByKey(PartitionBy(Parallelize(ctx, left, 4), n), sum, 5), true)
		}, format(sums(left, 5), true)},
		{"join", func(ctx *Context) ([][]string, error) {
			return partsOf(Join(Parallelize(ctx, left, 4), Parallelize(ctx, right, 3), n), true)
		}, format(joined, true)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cl := cluster.New(cluster.Config{Executors: 3, CoresPerExecutor: 2, Seed: 9})
			defer cl.Close()
			got, err := c.run(NewContext(cl))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("partitions = %v, reference %v", got, c.want)
			}
			want := nonEmptyParts(c.want)
			if want == len(c.want) {
				t.Fatalf("every partition holds a record; the input skips nothing")
			}
			hist := cl.StageHistory()
			if last := hist[len(hist)-1]; last.Tasks != want {
				t.Errorf("result stage %q ran %d tasks, want one per non-empty partition (%d of %d)",
					last.Name, last.Tasks, want, len(c.want))
			}
			// A shuffle map stage over a shuffled input launches only for
			// the input's non-empty buckets.
			if c.name == "reduceByKeyAfterShuffle" {
				for _, s := range hist {
					if strings.Contains(s.Name, ".combine.shuffleMap") && s.Tasks != nonEmptyParts(format(shuffled, false)) {
						t.Errorf("map stage %q ran %d tasks, want one per non-empty input bucket (%d)",
							s.Name, s.Tasks, nonEmptyParts(format(shuffled, false)))
					}
				}
			}
		})
	}
}

// TestMapPartitionsTCRunsOnEmptyPartitions: an opaque partition function may
// emit rows from an empty input, so MapPartitionsTC is called for every
// partition, including the ones its shuffled input proves empty.
func TestMapPartitionsTCRunsOnEmptyPartitions(t *testing.T) {
	const n = 8
	cl := cluster.New(cluster.Config{Executors: 3, CoresPerExecutor: 2})
	defer cl.Close()
	src := PartitionBy(Parallelize(NewContext(cl), kvPairs(30, 2), 3), n)
	r := MapPartitionsTC(src, func(_ *cluster.TaskContext, p int, in []Pair[int, int]) ([]Pair[int, int], error) {
		return []Pair[int, int]{KV(p, len(in))}, nil
	})
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var want []Pair[int, int]
	empty := 0
	for p, b := range refBuckets(kvPairs(30, 2), n) {
		want = append(want, KV(p, len(b)))
		if len(b) == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("no bucket is empty; the test is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v, want one per partition %v", got, want)
	}
	hist := cl.StageHistory()
	if last := hist[len(hist)-1]; last.Tasks != n {
		t.Errorf("result stage %q ran %d tasks, want all %d", last.Name, last.Tasks, n)
	}
}

// TestLostBucketLaunchesAndRecomputes: a bucket whose only block died with
// its executor after the map stage is not proven empty — its reduce task
// launches, fails its fetch, and the lost map output is recomputed from
// lineage, with output identical to the clean run's.
func TestLostBucketLaunchesAndRecomputes(t *testing.T) {
	const n = 8
	// Every record but one has key 0; the lone record's key lands in a
	// bucket of its own, written by exactly one map task.
	lone := 1
	for hashKey(lone)%n == hashKey(0)%n {
		lone++
	}
	data := make([]Pair[int, int], 40)
	for i := range data {
		data[i] = KV(0, i)
	}
	const loneTask = 2
	data[loneTask*10+3] = KV(lone, -1)

	cl := cluster.New(cluster.Config{Executors: 4, ExecutorRecoveryStages: 1000, Trace: true})
	defer cl.Close()
	r := PartitionBy(Parallelize(NewContext(cl), data, 4), n)
	want, err := partsOf(r, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := format(refBuckets(data, n), false); !reflect.DeepEqual(want, got) {
		t.Fatalf("clean partitions = %v, reference %v", want, got)
	}
	host := -1
	for _, e := range cl.Tracer().Snapshot() {
		if e.Kind == cluster.EventTaskSuccess && strings.Contains(e.Stage, ".shuffleMap") && e.Task == loneTask {
			host = e.Executor
		}
	}
	if !cl.FailExecutor(host) {
		t.Fatalf("FailExecutor(%d) refused", host)
	}
	stages := len(cl.StageHistory())
	got, err := partsOf(r, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered partitions = %v, want %v", got, want)
	}
	if recomputeStages(cl) == 0 {
		t.Fatal("the lost bucket was not recomputed")
	}
	var result *cluster.StageStats
	for i, s := range cl.StageHistory()[stages:] {
		if strings.HasPrefix(s.Name, "parts@") {
			result = &cl.StageHistory()[stages+i]
		}
	}
	if result == nil || result.Tasks != 2 || result.Resubmits == 0 {
		t.Errorf("result stage after the loss = %+v, want the 2 non-empty buckets launched and resubmitted", result)
	}
	if m := cl.Metrics().Snapshot(); m.MapOutputsLost == 0 {
		t.Error("no map output was lost; the test is vacuous")
	}
}
