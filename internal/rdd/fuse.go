package rdd

import (
	"sync/atomic"

	"adrdedup/internal/cluster"
)

// Fused narrow-stage execution.
//
// Narrow (element-wise) transformations — Map, Filter and FlatMap —
// carry, in addition to the usual per-partition compute closure, a
// *streaming* description of the operator: a function that pushes the
// partition's elements one at a time into a downstream emit callback. When a chain of such operators is
// materialized, the chain collapses into a single one-pass loop over the
// nearest upstream fusion boundary with one output allocation, instead of
// one full intermediate slice per operator.
//
// Fusion boundaries — places where a partition must exist as a real slice —
// are:
//
//   - cached RDDs (the block store holds whole partitions; downstream
//     operators must read through the cache, and the cache must be fed);
//   - shuffle outputs (PartitionBy, and everything built on it) and sources
//     (Parallelize), whose partitions arrive as slices;
//   - multi-parent operators (Union, Cartesian) and opaque whole-partition
//     operators (MapPartitions, MapPartitionsTC), which consume
//     their parents as slices. Cartesian is special-cased: it is a boundary
//     for its *parents* but streams its pairs element-by-element into the
//     fused downstream chain, so `Cartesian(a, b) → Filter → Map` never
//     materializes the full cross product.
//
// Counter attribution is unchanged by fusion: records and working-set bytes
// are charged where partitions actually materialize — at the boundary RDD a
// job or shuffle map stage runs over — so metrics stay bit-identical to
// unfused execution (the differential suite pins this down).
//
// A cached RDD is a boundary *dynamically*: Cache() may be called after
// downstream transformations were declared, so fusability is re-checked at
// execution time, not frozen at build time.

// streamFn pushes one partition's elements into emit, one element at a time.
// sizeHint, when non-nil, is called at most once before the first emit with
// an upper-bound estimate of the output size, letting collectors pre-size
// their single output allocation. emit's error aborts the stream.
type streamFn[T any] func(tc *cluster.TaskContext, partition int, sizeHint func(int), emit func(T) error) error

// fusionOff disables fused execution when set (every narrow operator then
// materializes its parent, as before fusion existed). Only tests can set it
// (SetFusionEnabled in export_test.go), so benchmarks and the differential
// suite can compare the two paths; product code always runs fused.
var fusionOff atomic.Bool

// fusable reports whether downstream operators may stream through this RDD
// instead of materializing it: it has a streaming description, no test has
// switched fusion off, and it is not cached (a cached RDD must be read through — and
// feed — the block store, making it a fusion boundary).
func (r *RDD[T]) fusable() bool {
	if r.stream == nil || fusionOff.Load() {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.cached
}

// streamInto feeds the partition's elements to emit one at a time: through
// the fused streaming path when this RDD is fusable, and by materializing
// the partition and looping over it otherwise (the boundary base case).
func (r *RDD[T]) streamInto(tc *cluster.TaskContext, partition int, sizeHint func(int), emit func(T) error) error {
	if r.fusable() {
		return r.stream(tc, partition, sizeHint, emit)
	}
	data, err := r.materialize(tc, partition)
	if err != nil {
		return err
	}
	if sizeHint != nil {
		sizeHint(len(data))
	}
	for _, v := range data {
		if err := emit(v); err != nil {
			return err
		}
	}
	return nil
}

// collectPresize caps how far a sizeHint may pre-size the collector's output
// slice. Hints are upper bounds (a fused Filter forwards its input size; a
// streaming Cartesian hints the full cross-product size), so an uncapped
// hint would reserve the worst case even when a selective filter keeps a few
// elements — exactly the working-set blowup fusion is meant to remove.
const collectPresize = 8192

// collectStream turns a streaming operator description into the usual
// per-partition compute closure: one pass, one output allocation (pre-sized
// from the chain's size hint, capped at collectPresize).
func collectStream[T any](stream streamFn[T]) func(tc *cluster.TaskContext, partition int) ([]T, error) {
	return func(tc *cluster.TaskContext, partition int) ([]T, error) {
		var out []T
		hint := func(n int) {
			if out != nil || n <= 0 {
				return
			}
			if n > collectPresize {
				n = collectPresize
			}
			out = make([]T, 0, n)
		}
		err := stream(tc, partition, hint, func(v T) error {
			out = append(out, v)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
}

// newNarrow builds the RDD for an element-wise transformation of parent. op
// is the short operator label ("map", "filter", ...) used in fused stage
// names; stream is the element-wise description, from which the compute
// closure falls out via collectStream. The static debug name keeps the
// pre-fusion dotted form (parent.op); the stage name reported to traces is
// computed dynamically by lineageName, joining fused operators with "+" up
// to the nearest boundary (e.g. "reports.map+filter+map").
func newNarrow[T, U any](parent *RDD[T], op string, stream streamFn[U]) *RDD[U] {
	out := newRDD(parent.ctx, parent.name+"."+op, parent.numPartitions,
		collectStream(stream), parent.prepare)
	out.stream = stream
	// An element-wise operator maps an empty partition to an empty one.
	out.empty = parent.knownEmpty
	out.chain = func() string {
		if parent.fusable() {
			return parent.lineageName() + "+" + op
		}
		return parent.lineageName() + "." + op
	}
	return out
}

// lineageName returns the name used to tag stages that materialize this RDD.
// For narrow operators it reflects the fused chain as of the moment the
// stage is submitted (caching a parent splits the chain back into dotted
// segments); SetName overrides it, as it always did.
func (r *RDD[T]) lineageName() string {
	if r.chain != nil && !r.nameOverride {
		return r.chain()
	}
	return r.name
}
