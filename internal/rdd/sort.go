package rdd

import (
	"fmt"
	"sort"
	"sync"

	"adrdedup/internal/cluster"
)

// SortBy totally sorts the dataset under less, like Spark's sortBy: the
// input is sampled to pick numPartitions-1 range boundaries, records are
// shuffled into contiguous ranges, and each partition is sorted locally.
// Collecting the result yields a globally sorted sequence.
func SortBy[T any](r *RDD[T], less func(a, b T) bool, numPartitions int) *RDD[T] {
	if numPartitions <= 0 {
		numPartitions = r.ctx.parallelism
	}

	// Sampling the boundaries is an eager driver-side job, as in Spark
	// (sortBy triggers a sample stage when declared).
	sample, err := Sample(r, 0.1, 17).Collect()
	if err != nil || len(sample) == 0 {
		// Fall back to whole-input bounds only if sampling failed;
		// an empty sample means a tiny input, where one partition is
		// fine.
		numPartitions = 1
	}
	// Stable sorts throughout: with only a partial order from less, an
	// unstable sort makes equal-key output order depend on sort internals.
	// Stability (plus the deterministic fetch order of the shuffle) pins
	// equal keys to their input order, run after run.
	sort.SliceStable(sample, func(i, j int) bool { return less(sample[i], sample[j]) })
	bounds := make([]T, 0, numPartitions-1)
	for i := 1; i < numPartitions; i++ {
		idx := i * len(sample) / numPartitions
		if idx < len(sample) {
			bounds = append(bounds, sample[idx])
		}
	}
	rangeOf := func(v T) int {
		// First range whose bound exceeds v; linear scan is fine for
		// tens of partitions.
		for i, b := range bounds {
			if less(v, b) {
				return i
			}
		}
		return len(bounds)
	}

	keyed := Map(r, func(v T) Pair[int, T] { return KV(rangeOf(v), v) }).SetName(r.name + ".rangeKeys")
	// PartitionBy hashes keys; for range partitioning the partition must
	// equal the key itself, so shuffle manually through the service.
	ctx := r.ctx
	shID := ctx.cl.Shuffles().Register()
	ctx.cl.Shuffles().SetCodec(shID, cluster.GobCodec[[]T]())
	parts := len(bounds) + 1
	prepareParent := keyed.prepare
	// mapOutput streams the range-keying chain of one parent partition
	// straight into the shuffle buckets (no intermediate keyed slice),
	// under an explicit map-task identity so lost-output recomputation
	// reproduces the original block keys.
	mapOutput := func(tc *cluster.TaskContext, part int) error {
		buckets := make([][]T, parts)
		err := keyed.streamInto(tc, part, nil, func(kv Pair[int, T]) error {
			buckets[kv.Key] = append(buckets[kv.Key], kv.Value)
			return nil
		})
		if err != nil {
			return err
		}
		for b, bucket := range buckets {
			if len(bucket) == 0 {
				continue
			}
			tc.WriteShuffleAs(shID, b, part, bucket,
				int64(len(bucket)), int64(len(bucket))*r.bytesPerRecord)
		}
		return nil
	}
	ctx.cl.Shuffles().SetRecompute(shID, func(lost []int) error {
		_, err := ctx.cl.RunRecoveryStage(
			fmt.Sprintf("%s.sortShuffle#%d.recompute@rdd%d", r.name, shID, r.id),
			len(lost), func(tc *cluster.TaskContext) error {
				return mapOutput(tc, lost[tc.Task()])
			})
		return err
	})
	runMapStage := onceErrFunc(func() error {
		for _, p := range prepareParent {
			if err := p(); err != nil {
				return err
			}
		}
		stage := fmt.Sprintf("%s.sortShuffle#%d@rdd%d", r.lineageName(), shID, r.id)
		_, err := ctx.cl.RunStage(stage, keyed.numPartitions,
			func(tc *cluster.TaskContext) error {
				return mapOutput(tc, tc.Task())
			})
		if err == nil {
			ctx.cl.Shuffles().MarkDone(shID)
		}
		return err
	})

	return newRDD(ctx, r.name+".sortBy", parts,
		func(tc *cluster.TaskContext, p int) ([]T, error) {
			blocks, err := tc.FetchShuffle(shID, p)
			if err != nil {
				return nil, err
			}
			var out []T
			for _, b := range blocks {
				out = append(out, b.([]T)...)
			}
			// In memory when the range fits the executor budget; a bounded-run
			// external merge otherwise — output-identical either way.
			out = externalSortStable(tc, ctx.cl, fmt.Sprintf("sortBy p%d", p),
				out, r.bytesPerRecord, less)
			return out, nil
		}, []func() error{runMapStage})
}

// onceErrFunc wraps f so it runs at most once (goroutine-safe) and replays
// its error to later callers.
func onceErrFunc(f func() error) func() error {
	var once sync.Once
	var err error
	return func() error {
		once.Do(func() { err = f() })
		return err
	}
}
