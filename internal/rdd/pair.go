package rdd

import (
	"fmt"
	"hash/fnv"
	"sync"

	"adrdedup/internal/cluster"
)

// Pair is a key-value record, the element type of keyed RDDs.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// Tuple2 is a generic 2-tuple, used by joins and Cartesian products.
type Tuple2[A, B any] struct {
	A A
	B B
}

// KV is a convenience constructor for Pair.
func KV[K comparable, V any](k K, v V) Pair[K, V] { return Pair[K, V]{Key: k, Value: v} }

// FNV-1a constants (matching hash/fnv's 64-bit variant).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a64 is hash/fnv's New64a/Write/Sum64 as an inlined loop over the
// string's bytes, with no hash-state or byte-slice allocation. Must stay
// bit-identical to the stdlib digest (pinned by TestHashKeyStringFNVPinned
// and FuzzHashKey), since shuffle bucket assignment depends on it.
func fnv1a64(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// hashKey hashes a comparable key to a bucket-friendly uint64. Integers use
// a splitmix64 finalizer; strings use an inlined FNV-1a over the raw bytes
// (no []byte conversion per record); other comparable types fall back to
// hashing their formatted representation.
func hashKey(k any) uint64 {
	switch v := k.(type) {
	case int:
		return splitmix64(uint64(v))
	case int8:
		return splitmix64(uint64(v))
	case int16:
		return splitmix64(uint64(v))
	case int32:
		return splitmix64(uint64(v))
	case int64:
		return splitmix64(uint64(v))
	case uint:
		return splitmix64(uint64(v))
	case uint8:
		return splitmix64(uint64(v))
	case uint16:
		return splitmix64(uint64(v))
	case uint32:
		return splitmix64(uint64(v))
	case uint64:
		return splitmix64(v)
	case string:
		return fnv1a64(v)
	case bool:
		if v {
			return splitmix64(1)
		}
		return splitmix64(0)
	default:
		h := fnv.New64a()
		fmt.Fprintf(h, "%v", v)
		return h.Sum64()
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PartitionBy hash-partitions a keyed RDD into numPartitions partitions
// (0 = default parallelism) through the shuffle service. This is the stage
// boundary: the parent's partitions are computed by a map stage whose output
// buckets are committed to the shuffle service; the returned RDD's partitions
// read (and are charged virtual network time for) those buckets. An input
// already hash-partitioned into numPartitions is returned as is.
func PartitionBy[K comparable, V any](r *RDD[Pair[K, V]], numPartitions int) *RDD[Pair[K, V]] {
	if numPartitions <= 0 {
		numPartitions = r.ctx.parallelism
	}
	if r.hashPartitioned && r.numPartitions == numPartitions {
		return r
	}
	ctx := r.ctx
	shID := ctx.cl.Shuffles().Register()
	// The gob codec makes this shuffle's blocks spillable under the
	// executor memory budget; without one every block would stay resident.
	ctx.cl.Shuffles().SetCodec(shID, cluster.GobCodec[[]Pair[K, V]]())
	bytesPerRecord := r.bytesPerRecord

	// mapOutput streams the parent partition's fused narrow chain straight
	// into the shuffle buckets (no intermediate slice), committing them
	// under the given map-task identity. The original map stage runs it for
	// every parent partition; the recompute callback re-runs it for exactly
	// the partitions whose committed output was lost with an executor,
	// producing bit-identical (mapTask, seq) block keys.
	mapOutput := func(tc *cluster.TaskContext, part int) error {
		buckets := make([][]Pair[K, V], numPartitions)
		var records int64
		err := r.streamInto(tc, part, nil, func(kv Pair[K, V]) error {
			records++
			b := int(hashKey(kv.Key) % uint64(numPartitions))
			buckets[b] = append(buckets[b], kv)
			return nil
		})
		if err != nil {
			return err
		}
		// Records are charged here, at the shuffle boundary, exactly as
		// when the input was materialized first.
		tc.AddRecords(records)
		for b, bucket := range buckets {
			if len(bucket) == 0 {
				continue
			}
			tc.WriteShuffleAs(shID, b, part, bucket,
				int64(len(bucket)), int64(len(bucket))*bytesPerRecord)
		}
		return nil
	}
	ctx.cl.Shuffles().SetRecompute(shID, func(lost []int) error {
		_, err := ctx.cl.RunRecoveryStage(
			fmt.Sprintf("%s.shuffleMap#%d.recompute@rdd%d", r.name, shID, r.id),
			len(lost), func(tc *cluster.TaskContext) error {
				return mapOutput(tc, lost[tc.Task()])
			})
		return err
	})

	var once sync.Once
	var onceErr error
	runMapStage := func() error {
		once.Do(func() {
			if onceErr = r.ensureDeps(); onceErr != nil {
				return
			}
			// A parent partition proven empty writes no bucket, so only the
			// others launch; each keeps its partition index as map task.
			parts := r.launchable()
			stage := fmt.Sprintf("%s.shuffleMap#%d@rdd%d", r.lineageName(), shID, r.id)
			_, onceErr = ctx.cl.RunStage(stage,
				len(parts), func(tc *cluster.TaskContext) error {
					return mapOutput(tc, parts[tc.Task()])
				})
			if onceErr == nil {
				ctx.cl.Shuffles().MarkDone(shID)
			}
		})
		return onceErr
	}

	out := newRDD(ctx, r.name+".partitionBy", numPartitions,
		func(tc *cluster.TaskContext, p int) ([]Pair[K, V], error) {
			blocks, err := tc.FetchShuffle(shID, p)
			if err != nil {
				return nil, err
			}
			var n int
			for _, b := range blocks {
				n += len(b.([]Pair[K, V]))
			}
			out := make([]Pair[K, V], 0, n)
			for _, b := range blocks {
				out = append(out, b.([]Pair[K, V])...)
			}
			tc.SetWorkingSetBytes(int64(n) * bytesPerRecord)
			return out, nil
		}, []func() error{runMapStage})
	out.hashPartitioned = true
	out.bytesPerRecord = bytesPerRecord
	out.empty = func(p int) bool { return ctx.cl.Shuffles().Empty(shID, p) }
	return out
}

// ReduceByKey merges values per key with f, using map-side combining before
// the shuffle (like Spark's combiner) and a final merge after it.
func ReduceByKey[K comparable, V any](r *RDD[Pair[K, V]], f func(V, V) V, numPartitions int) *RDD[Pair[K, V]] {
	combine := func(in []Pair[K, V]) ([]Pair[K, V], error) {
		acc := make(map[K]V, len(in))
		order := make([]K, 0, len(in))
		for _, kv := range in {
			if cur, ok := acc[kv.Key]; ok {
				acc[kv.Key] = f(cur, kv.Value)
			} else {
				acc[kv.Key] = kv.Value
				order = append(order, kv.Key)
			}
		}
		out := make([]Pair[K, V], 0, len(acc))
		for _, k := range order {
			out = append(out, Pair[K, V]{Key: k, Value: acc[k]})
		}
		return out, nil
	}
	// Both combine steps map an empty partition to an empty one, so each
	// keeps its input's emptiness.
	pre := MapPartitions(r, combine).SetName(r.name + ".combine")
	pre.bytesPerRecord = r.bytesPerRecord
	pre.empty = r.knownEmpty
	shuffled := PartitionBy(pre, numPartitions)
	out := MapPartitions(shuffled, combine).SetName(r.name + ".reduceByKey")
	out.hashPartitioned = shuffled.hashPartitioned
	out.empty = shuffled.knownEmpty
	return out
}

// Join inner-joins two keyed RDDs on their keys: the result contains one
// (k, (v, w)) record per matching value combination. Both sides are
// co-partitioned into numPartitions hash partitions, then joined locally.
func Join[K comparable, V, W any](a *RDD[Pair[K, V]], b *RDD[Pair[K, W]], numPartitions int) *RDD[Pair[K, Tuple2[V, W]]] {
	if a.ctx != b.ctx {
		panic("rdd: Join across contexts")
	}
	if numPartitions <= 0 {
		numPartitions = a.ctx.parallelism
	}
	sa := PartitionBy(a, numPartitions)
	sb := PartitionBy(b, numPartitions)
	prepare := append(append([]func() error{}, sa.prepare...), sb.prepare...)
	bytesPerRecord := sa.bytesPerRecord + sb.bytesPerRecord
	cl := a.ctx.cl
	cfg := cl.Config()
	out := newRDD(a.ctx, fmt.Sprintf("join(%s,%s)", a.name, b.name), numPartitions,
		func(tc *cluster.TaskContext, p int) ([]Pair[K, Tuple2[V, W]], error) {
			left, err := sa.materialize(tc, p)
			if err != nil {
				return nil, err
			}
			right, err := sb.materialize(tc, p)
			if err != nil {
				return nil, err
			}
			tc.SetWorkingSetBytes(int64(len(left))*sa.bytesPerRecord +
				int64(len(right))*sb.bytesPerRecord)
			// An over-budget build side reaches the hash table through the
			// spill tier, one budget-sized chunk at a time.
			if cfg.SpillToDisk && int64(len(left))*sa.bytesPerRecord > cfg.MemoryPerExecutorBytes {
				left = spillChunks(tc, cl, fmt.Sprintf("join p%d", p), left,
					sa.bytesPerRecord, cfg.MemoryPerExecutorBytes)
			}
			// Count per-key cardinalities first so every value slice and
			// the output are allocated exactly once at final size, instead
			// of growing from nil through the append doubling schedule.
			counts := make(map[K]int, len(left))
			for _, kv := range left {
				counts[kv.Key]++
			}
			byKey := make(map[K][]V, len(counts))
			for _, kv := range left {
				s, ok := byKey[kv.Key]
				if !ok {
					s = make([]V, 0, counts[kv.Key])
				}
				byKey[kv.Key] = append(s, kv.Value)
			}
			outN := 0
			for _, kw := range right {
				outN += counts[kw.Key]
			}
			out := make([]Pair[K, Tuple2[V, W]], 0, outN)
			for _, kw := range right {
				for _, v := range byKey[kw.Key] {
					out = append(out, Pair[K, Tuple2[V, W]]{
						Key:   kw.Key,
						Value: Tuple2[V, W]{A: v, B: kw.Value},
					})
				}
			}
			return out, nil
		}, prepare)
	out.hashPartitioned = true
	out.bytesPerRecord = bytesPerRecord
	// An inner join of an empty side is empty.
	out.empty = func(p int) bool { return sa.knownEmpty(p) || sb.knownEmpty(p) }
	return out
}

// spillChunks sends a join's over-budget build side through the spill tier in
// budget-sized chunks (at least one record each), charging the attempt the virtual disk time
// of writing and reading back each one, and returns the read-back records in
// input order. The build and probe that follow are the in-memory ones, so the
// budget changes the join's cost, never its output. The process still holds
// every record in real RAM: the budget is a virtual resource, like the
// network bandwidth.
func spillChunks[K comparable, V any](tc *cluster.TaskContext, cl *cluster.Cluster, detail string,
	left []Pair[K, V], bytesPerRecord, budget int64) []Pair[K, V] {
	chunk := max(int(budget/bytesPerRecord), 1)
	codec := cluster.GobCodec[[]Pair[K, V]]()
	out := make([]Pair[K, V], 0, len(left))
	for lo := 0; lo < len(left); lo += chunk {
		part := left[lo:min(lo+chunk, len(left))]
		if back, ok := spillRoundTrip(tc, cl, codec, part,
			fmt.Sprintf("%s left chunk %d", detail, lo/chunk)); ok {
			part = back.([]Pair[K, V])
		}
		out = append(out, part...)
	}
	return out
}

// spillRoundTrip pushes one encoded payload through the spill store and reads
// it back, charging the attempt for both directions. It returns the decoded
// value, or (nil, false) when any step fails — callers then keep their
// resident copy, since spilling must never cost correctness.
func spillRoundTrip(tc *cluster.TaskContext, cl *cluster.Cluster, codec cluster.SpillCodec,
	v any, detail string) (any, bool) {
	raw, err := codec.Encode(v)
	if err != nil {
		return nil, false
	}
	ref, err := cl.Spill().Put(raw, tc.Executor())
	if err != nil {
		return nil, false
	}
	defer cl.Spill().Free(ref)
	tc.AddVirtualNS(cl.AccountSpillWrite(ref, detail))
	back, err := cl.Spill().Get(ref)
	if err != nil {
		return nil, false
	}
	decoded, err := codec.Decode(back)
	if err != nil {
		return nil, false
	}
	tc.AddVirtualNS(cl.AccountSpillRead(ref, detail))
	return decoded, true
}
