package rdd

import (
	"fmt"
	"sort"
	"testing"

	"adrdedup/internal/cluster"
)

// operatorCase runs one surviving operator over src and renders its result
// next to a driver-side oracle computed from data, the elements src holds.
type operatorCase struct {
	name string
	run  func(src *RDD[int], data []int) (got, want string, err error)
}

func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func keyedByParity(src *RDD[int]) *RDD[Pair[int, int]] {
	return Map(src, func(v int) Pair[int, int] { return KV(v%2, v) })
}

func sortedPairs(ps []Pair[int, int]) []Pair[int, int] {
	out := append([]Pair[int, int](nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Value < out[j].Value
	})
	return out
}

var operatorCases = []operatorCase{
	{"map", func(src *RDD[int], data []int) (string, string, error) {
		got, err := Map(src, func(v int) int { return 3 * v }).Collect()
		want := make([]int, len(data))
		for i, v := range data {
			want[i] = 3 * v
		}
		return fmt.Sprint(got), fmt.Sprint(want), err
	}},
	{"filter", func(src *RDD[int], data []int) (string, string, error) {
		got, err := Filter(src, func(v int) bool { return v%2 == 0 }).Collect()
		var want []int
		for _, v := range data {
			if v%2 == 0 {
				want = append(want, v)
			}
		}
		return fmt.Sprint(got), fmt.Sprint(want), err
	}},
	{"flatMap", func(src *RDD[int], data []int) (string, string, error) {
		got, err := FlatMap(src, func(v int) []int { return []int{v, -v} }).Collect()
		var want []int
		for _, v := range data {
			want = append(want, v, -v)
		}
		return fmt.Sprint(got), fmt.Sprint(want), err
	}},
	{"mapPartitions", func(src *RDD[int], data []int) (string, string, error) {
		got, err := MapPartitions(src, func(in []int) ([]int, error) {
			out := make([]int, len(in))
			for i, v := range in {
				out[i] = v + 1
			}
			return out, nil
		}).Collect()
		want := make([]int, len(data))
		for i, v := range data {
			want[i] = v + 1
		}
		return fmt.Sprint(got), fmt.Sprint(want), err
	}},
	{"mapPartitionsTC", func(src *RDD[int], data []int) (string, string, error) {
		// One length per partition: every partition runs, and the lengths
		// add up to the input.
		lens, err := MapPartitionsTC(src, func(_ *cluster.TaskContext, _ int, in []int) ([]int, error) {
			return []int{len(in)}, nil
		}).Collect()
		total := 0
		for _, n := range lens {
			total += n
		}
		return fmt.Sprint(len(lens), total), fmt.Sprint(src.NumPartitions(), len(data)), err
	}},
	{"union", func(src *RDD[int], data []int) (string, string, error) {
		got, err := Union(src, src).Collect()
		want := append(append([]int{}, data...), data...)
		return fmt.Sprint(got), fmt.Sprint(want), err
	}},
	{"cartesian", func(src *RDD[int], data []int) (string, string, error) {
		pairs, err := Cartesian(src, src).Collect()
		got := make([]int, len(pairs))
		for i, p := range pairs {
			got[i] = 100*p.A + p.B
		}
		var want []int
		for _, a := range data {
			for _, b := range data {
				want = append(want, 100*a+b)
			}
		}
		return fmt.Sprint(sortedInts(got)), fmt.Sprint(sortedInts(want)), err
	}},
	{"cache", func(src *RDD[int], data []int) (string, string, error) {
		cached := src.Cache()
		if _, err := cached.Collect(); err != nil {
			return "", "", err
		}
		got, err := cached.Collect()
		return fmt.Sprint(got), fmt.Sprint(data), err
	}},
	{"partitionBy", func(src *RDD[int], data []int) (string, string, error) {
		got, err := PartitionBy(keyedByParity(src), 3).Collect()
		want := make([]Pair[int, int], len(data))
		for i, v := range data {
			want[i] = KV(v%2, v)
		}
		return fmt.Sprint(sortedPairs(got)), fmt.Sprint(sortedPairs(want)), err
	}},
	{"reduceByKey", func(src *RDD[int], data []int) (string, string, error) {
		got, err := ReduceByKey(keyedByParity(src), func(a, b int) int { return a + b }, 3).Collect()
		sums := make(map[int]int)
		for _, v := range data {
			sums[v%2] += v
		}
		var want []Pair[int, int]
		for k, s := range sums {
			want = append(want, KV(k, s))
		}
		return fmt.Sprint(sortedPairs(got)), fmt.Sprint(sortedPairs(want)), err
	}},
	{"join", func(src *RDD[int], data []int) (string, string, error) {
		joined, err := Join(keyedByParity(src), keyedByParity(src), 3).Collect()
		got := make([]int, len(joined))
		for i, kv := range joined {
			got[i] = 100*kv.Value.A + kv.Value.B
		}
		var want []int
		for _, a := range data {
			for _, b := range data {
				if a%2 == b%2 {
					want = append(want, 100*a+b)
				}
			}
		}
		return fmt.Sprint(sortedInts(got)), fmt.Sprint(sortedInts(want)), err
	}},
	{"runJob", func(src *RDD[int], data []int) (string, string, error) {
		sums, err := RunJob(src, "sum", func(_ *cluster.TaskContext, _ int, in []int) (int, error) {
			s := 0
			for _, v := range in {
				s += v
			}
			return s, nil
		})
		got, want := 0, 0
		for _, s := range sums {
			got += s
		}
		for _, v := range data {
			want += v
		}
		return fmt.Sprint(len(sums), got), fmt.Sprint(src.NumPartitions(), want), err
	}},
}

// TestOperatorsOnEmptyPartitions runs every operator the engine keeps over
// inputs whose partitions are mostly or entirely empty, and checks each
// against a driver-side oracle. Empty partitions reach every operator in
// practice: a selective filter upstream of a shuffle leaves them behind.
func TestOperatorsOnEmptyPartitions(t *testing.T) {
	inputs := []struct {
		name string
		keep func(int) bool
	}{
		{"sparse", func(v int) bool { return v < 3 }}, // only partition 0 keeps rows
		{"tail", func(v int) bool { return v >= 9 }},  // only the last partition keeps rows
		{"empty", func(int) bool { return false }},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			var data []int
			for _, v := range ints(12) {
				if in.keep(v) {
					data = append(data, v)
				}
			}
			for _, op := range operatorCases {
				t.Run(op.name, func(t *testing.T) {
					src := Filter(Parallelize(testCtx(), ints(12), 4), in.keep)
					got, want, err := op.run(src, data)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("got %s, want %s", got, want)
					}
				})
			}
		})
	}
}

// TestShuffleOperatorsRecoverFromExecutorLoss: for every shuffling operator,
// killing the hosts of its finished map outputs makes the next job recompute
// them from lineage, with an unchanged result and no more recomputed tasks
// than lost outputs.
func TestShuffleOperatorsRecoverFromExecutorLoss(t *testing.T) {
	keyed := func(ctx *Context) *RDD[Pair[int, int]] {
		return Map(Parallelize(ctx, ints(240), 6), func(v int) Pair[int, int] { return KV(v%5, v) })
	}
	sum := func(a, b int) int { return a + b }
	cases := []struct {
		name  string
		build func(ctx *Context) func() (string, error)
	}{
		{"partitionBy", func(ctx *Context) func() (string, error) {
			r := PartitionBy(keyed(ctx), 3)
			return func() (string, error) { out, err := r.Collect(); return fmt.Sprint(out), err }
		}},
		{"join", func(ctx *Context) func() (string, error) {
			sums := ReduceByKey(keyed(ctx), sum, 3)
			r := Join(sums, keyed(ctx), 4)
			return func() (string, error) { out, err := r.Collect(); return fmt.Sprint(out), err }
		}},
		{"reduceByKey", func(ctx *Context) func() (string, error) {
			r := ReduceByKey(keyed(ctx), sum, 3)
			return func() (string, error) { out, err := r.Collect(); return fmt.Sprint(out), err }
		}},
		{"cachedReduceByKey", func(ctx *Context) func() (string, error) {
			r := ReduceByKey(keyed(ctx), sum, 3).Cache()
			return func() (string, error) { out, err := r.Collect(); return fmt.Sprint(out), err }
		}},
		{"unionOfShuffles", func(ctx *Context) func() (string, error) {
			r := Union(ReduceByKey(keyed(ctx), sum, 2), PartitionBy(keyed(ctx), 3))
			return func() (string, error) { out, err := r.Collect(); return fmt.Sprint(out), err }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cl := cluster.New(cluster.Config{Executors: 4, ExecutorRecoveryStages: 1000})
			defer cl.Close()
			collect := c.build(NewContext(cl))
			want, err := collect()
			if err != nil {
				t.Fatal(err)
			}
			killAllButOne(t, cl)
			got, err := collect()
			if err != nil {
				t.Fatalf("collect after executor loss: %v", err)
			}
			if recomputeStages(cl) == 0 {
				t.Fatal("executor loss recomputed nothing; test is vacuous")
			}
			if got != want {
				t.Errorf("recovered collect = %s, want %s", got, want)
			}
			m := cl.Metrics().Snapshot()
			if m.RecomputedTasks > m.MapOutputsLost {
				t.Errorf("RecomputedTasks %d > MapOutputsLost %d", m.RecomputedTasks, m.MapOutputsLost)
			}
		})
	}
}
