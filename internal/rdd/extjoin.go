package rdd

import (
	"fmt"
	"sort"

	"adrdedup/internal/cluster"
)

// External-memory join.
//
// When a join partition's build side exceeds the executor memory budget and
// the disk overflow tier is on (Config.SpillToDisk), Join switches from its
// all-in-memory build-and-probe to an external one: budget-sized chunks of the
// build side are spilled through the cluster's framed, compressed spill store,
// read back and probed, charging the spill tier's virtual disk time
// (Cluster.SpillIONS) to the running attempt.
//
// The external join is *output-identical* to the in-memory one — it
// re-establishes the in-memory (right index, left position) emission order
// with a stable re-sort — so spilling remains a pure storage and accounting
// decision, pinned by the differential and spill tests.
//
// Simulation honesty note: the driver process necessarily holds the decoded
// chunks in real RAM during the probe; the budget is a *virtual* resource,
// like NetworkMBps. What the external path models is the extra disk traffic
// and the partition-size independence a real external algorithm buys.

// spillRoundTrip pushes one encoded payload through the spill store and reads
// it back, charging the attempt for both directions. It returns the decoded
// value, or (nil, false) when any step fails — callers then fall back to
// their resident copy, since spilling must never cost correctness.
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

// joinTagged carries one joined record together with the coordinates that
// define the in-memory join's emission order: j is the right record's index,
// i the left record's global position. Sorting the external join's output
// stably by (j, i) reproduces the in-memory order exactly.
type joinTagged[K comparable, V, W any] struct {
	j, i int
	out  Pair[K, Tuple2[V, W]]
}

// externalJoin is the over-budget path of Join: the left side is processed in
// budget-sized chunks, each spilled through the overflow tier (charging
// virtual disk time) and probed against the full right side; the tagged
// matches are then re-sorted into the in-memory join's (right index, left
// position) order. Output is identical to the in-memory build-and-probe join.
func externalJoin[K comparable, V, W any](tc *cluster.TaskContext, cl *cluster.Cluster, detail string,
	left []Pair[K, V], right []Pair[K, W], leftBytesPerRecord int64) []Pair[K, Tuple2[V, W]] {
	chunk := int(cl.ExecutorMemoryBytes() / leftBytesPerRecord)
	if chunk < 1 {
		chunk = 1
	}
	codec := cluster.GobCodec[[]Pair[K, V]]()
	var tagged []joinTagged[K, V, W]
	type post struct {
		i int
		v V
	}
	for lo := 0; lo < len(left); lo += chunk {
		hi := lo + chunk
		if hi > len(left) {
			hi = len(left)
		}
		part := left[lo:hi]
		if back, ok := spillRoundTrip(tc, cl, codec, part,
			fmt.Sprintf("%s left chunk %d", detail, lo/chunk)); ok {
			part = back.([]Pair[K, V])
		}
		byKey := make(map[K][]post, len(part))
		for idx, kv := range part {
			byKey[kv.Key] = append(byKey[kv.Key], post{i: lo + idx, v: kv.Value})
		}
		for j, kw := range right {
			for _, m := range byKey[kw.Key] {
				tagged = append(tagged, joinTagged[K, V, W]{j: j, i: m.i,
					out: Pair[K, Tuple2[V, W]]{Key: kw.Key, Value: Tuple2[V, W]{A: m.v, B: kw.Value}}})
			}
		}
	}
	sort.SliceStable(tagged, func(a, b int) bool {
		if tagged[a].j != tagged[b].j {
			return tagged[a].j < tagged[b].j
		}
		return tagged[a].i < tagged[b].i
	})
	out := make([]Pair[K, Tuple2[V, W]], len(tagged))
	for i, t := range tagged {
		out[i] = t.out
	}
	return out
}
