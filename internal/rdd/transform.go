package rdd

import (
	"fmt"

	"adrdedup/internal/cluster"
)

// Map applies f to every element. Map is a narrow operator: it fuses with
// adjacent narrow operators into a single streaming pass (see fuse.go).
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return newNarrow(r, "map", func(tc *cluster.TaskContext, p int, sizeHint func(int), emit func(U) error) error {
		return r.streamInto(tc, p, sizeHint, func(v T) error {
			return emit(f(v))
		})
	})
}

// MapTC is Map for functions that count their work on the attempt's
// TaskContext (TaskContext.AddDistances, AddComparisons), which prices the
// attempt's virtual compute. It fuses as Map does.
func MapTC[T, U any](r *RDD[T], f func(tc *cluster.TaskContext, v T) U) *RDD[U] {
	return newNarrow(r, "map", func(tc *cluster.TaskContext, p int, sizeHint func(int), emit func(U) error) error {
		return r.streamInto(tc, p, sizeHint, func(v T) error {
			return emit(f(tc, v))
		})
	})
}

// Filter keeps the elements for which pred is true. Filter is a narrow
// operator and fuses; the parent's size hint is forwarded as an upper bound.
func Filter[T any](r *RDD[T], pred func(T) bool) *RDD[T] {
	return newNarrow(r, "filter", func(tc *cluster.TaskContext, p int, sizeHint func(int), emit func(T) error) error {
		return r.streamInto(tc, p, sizeHint, func(v T) error {
			if pred(v) {
				return emit(v)
			}
			return nil
		})
	})
}

// FlatMap applies f to every element and concatenates the results. FlatMap
// is a narrow operator and fuses; the parent's size hint is forwarded as a
// guess (output may grow past it).
func FlatMap[T, U any](r *RDD[T], f func(T) []U) *RDD[U] {
	return newNarrow(r, "flatMap", func(tc *cluster.TaskContext, p int, sizeHint func(int), emit func(U) error) error {
		return r.streamInto(tc, p, sizeHint, func(v T) error {
			for _, u := range f(v) {
				if err := emit(u); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// MapPartitions applies f to each whole partition; it is MapPartitionsTC for
// functions that need neither the TaskContext nor the partition index.
func MapPartitions[T, U any](r *RDD[T], f func(in []T) ([]U, error)) *RDD[U] {
	return MapPartitionsTC(r, func(_ *cluster.TaskContext, _ int, in []T) ([]U, error) { return f(in) })
}

// MapPartitionsTC applies f to each whole partition along with the task's
// TaskContext and the partition index, giving whole-partition kernels access
// to per-attempt services — most importantly TaskContext.Scratch, the
// worker-owned buffer bundle that keeps zero-alloc kernels allocation-free
// when tasks run concurrently. Because f is an opaque whole-partition
// function, this is a fusion boundary: the parent is materialized as a slice.
// For the same reason f runs for every partition, even one whose input is
// proven empty: it may emit rows from no input.
//
// f may run concurrently for different partitions and may run more than once
// for the same partition (task retries, lineage recomputation); it must treat
// the scratch contents as unspecified at entry, except the zeroed tables
// (which it must hand back all zero), and must not retain scratch buffers in
// its output.
func MapPartitionsTC[T, U any](r *RDD[T], f func(tc *cluster.TaskContext, partition int, in []T) ([]U, error)) *RDD[U] {
	return newRDD(r.ctx, r.name+".mapPartitions", r.numPartitions,
		func(tc *cluster.TaskContext, p int) ([]U, error) {
			in, err := r.materialize(tc, p)
			if err != nil {
				return nil, err
			}
			return f(tc, p, in)
		}, r.prepare)
}

// Union concatenates two RDDs; the result has the sum of their partitions.
// Union is a fusion boundary (multi-parent).
func Union[T any](a, b *RDD[T]) *RDD[T] {
	if a.ctx != b.ctx {
		panic("rdd: Union across contexts")
	}
	prepare := append(append([]func() error{}, a.prepare...), b.prepare...)
	out := newRDD(a.ctx, fmt.Sprintf("union(%s,%s)", a.name, b.name),
		a.numPartitions+b.numPartitions,
		func(tc *cluster.TaskContext, p int) ([]T, error) {
			if p < a.numPartitions {
				return a.materialize(tc, p)
			}
			return b.materialize(tc, p-a.numPartitions)
		}, prepare)
	out.empty = func(p int) bool {
		if p < a.numPartitions {
			return a.knownEmpty(p)
		}
		return b.knownEmpty(p - a.numPartitions)
	}
	return out
}

// Cartesian pairs every element of a with every element of b. The result has
// a.NumPartitions x b.NumPartitions partitions. Cartesian is a fusion
// boundary for its parents (both are materialized as slices), but it streams
// its pairs element-by-element into the fused downstream chain, so a
// Cartesian followed by narrow operators never materializes the full cross
// product.
func Cartesian[T, U any](a *RDD[T], b *RDD[U]) *RDD[Tuple2[T, U]] {
	if a.ctx != b.ctx {
		panic("rdd: Cartesian across contexts")
	}
	prepare := append(append([]func() error{}, a.prepare...), b.prepare...)
	stream := func(tc *cluster.TaskContext, p int, sizeHint func(int), emit func(Tuple2[T, U]) error) error {
		pa, pb := p/b.numPartitions, p%b.numPartitions
		left, err := a.materialize(tc, pa)
		if err != nil {
			return err
		}
		right, err := b.materialize(tc, pb)
		if err != nil {
			return err
		}
		if sizeHint != nil {
			sizeHint(len(left) * len(right))
		}
		for _, x := range left {
			for _, y := range right {
				if err := emit(Tuple2[T, U]{x, y}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	out := newRDD(a.ctx, fmt.Sprintf("cartesian(%s,%s)", a.name, b.name),
		a.numPartitions*b.numPartitions, collectStream(stream), prepare)
	out.stream = stream
	return out
}
