// Package rdd implements a Spark-like resilient distributed dataset layer on
// top of the simulated cluster (internal/cluster). An RDD is an immutable,
// lazily evaluated, partitioned collection defined by a per-partition compute
// closure plus its lineage. Transformations (Map, Filter, Join, ReduceByKey,
// ...) build new RDDs without running anything; actions (Collect, or RunJob
// with a per-partition function) submit jobs. Jobs split into stages at
// shuffle boundaries, exactly as in Spark: a keyed transformation first runs
// a map stage that hash-partitions its input into the shuffle service, then
// downstream stages read the shuffled blocks.
//
// Because Go methods cannot introduce new type parameters, transformations
// that change the element type are package-level functions: rdd.Map(r, f)
// rather than r.Map(f).
//
// RDDs may be cached (Cache) in the cluster's block store. Cached partitions
// that are evicted under memory pressure are transparently recomputed from
// lineage on the next access — the fault-tolerance property the paper relies
// on Spark for.
package rdd

import (
	"fmt"
	"sync"
	"sync/atomic"

	"adrdedup/internal/cluster"
)

// Context owns RDD identity and default parallelism for one logical Spark
// application. It is safe for use from a single driver goroutine (like a
// SparkContext, jobs are submitted sequentially).
type Context struct {
	cl          *cluster.Cluster
	nextID      atomic.Int64
	parallelism int
}

// NewContext creates a driver context bound to a cluster. The default
// parallelism is the cluster's virtual slot count.
func NewContext(cl *cluster.Cluster) *Context {
	return &Context{cl: cl, parallelism: cl.SlotCount()}
}

// Cluster returns the underlying simulated cluster.
func (c *Context) Cluster() *cluster.Cluster { return c.cl }

// DefaultParallelism returns the partition count used when callers pass 0.
func (c *Context) DefaultParallelism() int { return c.parallelism }

// RDD is an immutable partitioned dataset of T.
type RDD[T any] struct {
	ctx  *Context
	id   int
	name string

	numPartitions int
	compute       func(tc *cluster.TaskContext, partition int) ([]T, error)

	// stream, when non-nil, is the element-wise streaming description of
	// this RDD used for fused narrow-stage execution (see fuse.go).
	// compute and stream produce identical partitions; stream avoids
	// materializing the chain's intermediates.
	stream streamFn[T]

	// chain computes the fused lineage label ("base.map+filter") for stage
	// names; nil for non-narrow RDDs. nameOverride records that SetName
	// replaced the derived name, which then also wins over chain.
	chain        func() string
	nameOverride bool

	// prepare holds idempotent closures that must run (driver-side)
	// before any job over this RDD: one per upstream shuffle map stage.
	prepare []func() error

	// bytesPerRecord is the size estimate used for cache and shuffle
	// accounting.
	bytesPerRecord int64

	mu         sync.Mutex
	cached     bool
	everCached map[int]bool // partitions that were stored at least once

	// hashPartitioned marks the output of PartitionBy, letting keyed
	// operations skip a redundant shuffle when co-partitioned.
	hashPartitioned bool

	// empty, when non-nil, reports whether a partition is proven to hold no
	// record, from committed shuffle output and operator semantics (see
	// knownEmpty). nil means unknown: the partition always launches.
	empty func(p int) bool
}

const defaultBytesPerRecord = 64

func newRDD[T any](ctx *Context, name string, partitions int,
	compute func(tc *cluster.TaskContext, partition int) ([]T, error),
	prepare []func() error) *RDD[T] {
	if partitions < 1 {
		partitions = 1
	}
	return &RDD[T]{
		ctx:            ctx,
		id:             int(ctx.nextID.Add(1)),
		name:           name,
		numPartitions:  partitions,
		compute:        compute,
		prepare:        prepare,
		bytesPerRecord: defaultBytesPerRecord,
		everCached:     make(map[int]bool),
	}
}

// Parallelize distributes data across numPartitions partitions (0 = default
// parallelism). The slice is referenced, not copied; callers must not mutate
// it afterwards.
func Parallelize[T any](ctx *Context, data []T, numPartitions int) *RDD[T] {
	if numPartitions <= 0 {
		numPartitions = ctx.parallelism
	}
	if numPartitions > len(data) && len(data) > 0 {
		numPartitions = len(data)
	}
	if len(data) == 0 {
		numPartitions = 1
	}
	n := len(data)
	p := numPartitions
	return newRDD(ctx, "parallelize", p, func(tc *cluster.TaskContext, part int) ([]T, error) {
		lo := part * n / p
		hi := (part + 1) * n / p
		return data[lo:hi], nil
	}, nil)
}

// SetName sets the debug name and returns the RDD for chaining. The name
// also replaces the derived fused-chain label in stage names.
func (r *RDD[T]) SetName(name string) *RDD[T] {
	r.name = name
	r.nameOverride = true
	return r
}

// WithBytesPerRecord overrides the per-record size estimate used for cache
// and shuffle byte accounting, returning the RDD for chaining.
func (r *RDD[T]) WithBytesPerRecord(n int64) *RDD[T] {
	if n > 0 {
		r.bytesPerRecord = n
	}
	return r
}

// Cache marks the RDD's partitions for storage in the cluster block store on
// first materialization.
func (r *RDD[T]) Cache() *RDD[T] {
	r.mu.Lock()
	r.cached = true
	r.mu.Unlock()
	return r
}

// Unpersist removes the RDD's partitions from the block store and stops
// future caching.
func (r *RDD[T]) Unpersist() {
	r.mu.Lock()
	r.cached = false
	r.everCached = make(map[int]bool)
	r.mu.Unlock()
	for p := 0; p < r.numPartitions; p++ {
		r.ctx.cl.Blocks().Remove(cluster.BlockID{RDD: r.id, Partition: p})
	}
}

// knownEmpty reports whether partition p is proven to hold no record. It is
// meaningful only after ensureDeps: before the upstream map stages are done
// every shuffle bucket reads as unknown, so nothing is ever skipped early.
func (r *RDD[T]) knownEmpty(p int) bool {
	return r.empty != nil && r.empty(p)
}

// launchable returns the partitions a stage over r launches a task for:
// every partition not proven empty, ascending. Call it after ensureDeps.
func (r *RDD[T]) launchable() []int {
	parts := make([]int, 0, r.numPartitions)
	for p := 0; p < r.numPartitions; p++ {
		if !r.knownEmpty(p) {
			parts = append(parts, p)
		}
	}
	return parts
}

// ensureDeps runs every upstream shuffle map stage that has not run yet.
// It is called driver-side before submitting a job.
func (r *RDD[T]) ensureDeps() error {
	for _, p := range r.prepare {
		if err := p(); err != nil {
			return err
		}
	}
	return nil
}

// materialize returns the partition's data, serving it from cache when
// possible and recomputing from lineage otherwise.
//
// Aliasing invariant: for a cached RDD the block store holds the canonical
// slice, and every materialize call returns a fresh shallow copy of it, so a
// downstream transformation that reassigns elements of its input (a mutating
// MapPartitions, say) cannot poison the cache for later readers. The copy is
// shallow: elements that are themselves pointers/slices must still not be
// deeply mutated. Uncached RDDs return the computed slice directly; callers
// must treat it as read-only too, since Parallelize aliases the driver's
// slice.
func (r *RDD[T]) materialize(tc *cluster.TaskContext, partition int) ([]T, error) {
	r.mu.Lock()
	cached := r.cached
	r.mu.Unlock()
	if !cached {
		return r.compute(tc, partition)
	}

	id := cluster.BlockID{RDD: r.id, Partition: partition}
	if v, ns, ok := r.ctx.cl.Blocks().Get(id); ok {
		// A hit served from the disk tier (the partition had been spilled
		// under memory pressure) costs virtual disk time; charge it to this
		// attempt like a shuffle wait.
		tc.AddVirtualNS(ns)
		return copySlice(v.([]T)), nil
	}
	r.mu.Lock()
	wasCached := r.everCached[partition]
	r.mu.Unlock()
	if wasCached {
		// The block was stored before and has been evicted: this is a
		// lineage recomputation.
		cl := r.ctx.cl
		cl.Metrics().BlockRecomputes.Add(1)
		if cl.Tracer().Enabled() {
			cl.Tracer().Emit(cluster.Event{Kind: cluster.EventBlockRecompute,
				Task: tc.Task(), Attempt: tc.Attempt(), Executor: tc.Executor(),
				Detail: fmt.Sprintf("rdd%d/p%d (%s)", r.id, partition, r.name)})
		}
	}
	data, err := r.compute(tc, partition)
	if err != nil {
		return nil, err
	}
	// Cached partitions are hosted on the caching attempt's executor and
	// die with it; the next read recomputes from lineage like an eviction.
	// The gob codec makes the block spillable: under Config.SpillToDisk,
	// memory pressure moves it to the executor's disk tier instead of
	// dropping it to a lineage recompute.
	if r.ctx.cl.Blocks().Put(id, data, int64(len(data))*r.bytesPerRecord,
		tc.Executor(), cluster.GobCodec[[]T]()) {
		r.mu.Lock()
		r.everCached[partition] = true
		r.mu.Unlock()
		// The stored slice is now canonical; hand the caller a copy so
		// its mutations cannot reach the cache.
		return copySlice(data), nil
	}
	return data, nil
}

// copySlice returns a fresh shallow copy of s (nil stays nil).
func copySlice[T any](s []T) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// RunJob materializes the partitions of r and applies fn to each, returning
// the per-partition results in partition order. It is the primitive all
// actions are built on. Only partitions that can hold a record launch a
// task (task i computes the i-th of them); a partition proven empty gets R's
// zero value, so Collect appends nothing for it. The submitted stage carries
// a lineage tag ("<name>@rdd<id>") so traces and stage history identify which
// RDD a stage materialized; for fused narrow chains the name joins the fused
// operators with "+" up to the nearest boundary (e.g.
// "reports.map+filter@rdd7").
func RunJob[T, R any](r *RDD[T], name string, fn func(tc *cluster.TaskContext, partition int, data []T) (R, error)) ([]R, error) {
	if err := r.ensureDeps(); err != nil {
		return nil, fmt.Errorf("rdd %q: preparing dependencies: %w", r.name, err)
	}
	// Results flow through the commit gate (PublishResult): with
	// speculation enabled, rival attempts of a partition run concurrently
	// and only the winning attempt's value lands in the slice.
	parts := r.launchable()
	raw, _, err := r.ctx.cl.RunStageResults(fmt.Sprintf("%s@rdd%d", name, r.id), len(parts), func(tc *cluster.TaskContext) error {
		p := parts[tc.Task()]
		data, err := r.materialize(tc, p)
		if err != nil {
			return err
		}
		tc.AddRecords(int64(len(data)))
		res, err := fn(tc, p, data)
		if err != nil {
			return err
		}
		tc.PublishResult(res)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("rdd %q: %w", r.name, err)
	}
	results := make([]R, r.numPartitions)
	for i, v := range raw {
		if v != nil {
			results[parts[i]] = v.(R)
		}
	}
	return results, nil
}
