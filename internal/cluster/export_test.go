package cluster

import "time"

// Test-only API: declared in a _test.go file so that only this package's
// tests can reach it.

// Delay simulates a straggling attempt: it charges virtualNS of virtual time
// immediately (so the would-be cost stays accounted even if the attempt is
// later cancelled by a winning rival) and then blocks for up to d of real
// wall-clock time, returning early if the attempt is cancelled. The real
// block is excluded from the attempt's measured compute time.
func (tc *TaskContext) Delay(d time.Duration, virtualNS float64) {
	tc.AddVirtualNS(virtualNS)
	tc.sleep(d)
}

// WriteShuffle is WriteShuffleAs under the attempt's own task number.
func (tc *TaskContext) WriteShuffle(shuffleID, reduceID int, data any, records, bytes int64) {
	tc.WriteShuffleAs(shuffleID, reduceID, tc.task, data, records, bytes)
}

// Used returns the bytes currently resident in the memory tier (spilled
// blocks count zero — that is the point of spilling).
func (b *BlockStore) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Capacity returns the store's byte capacity.
func (b *BlockStore) Capacity() int64 { return b.capacity }

// PooledScratches returns the scratches the pool holds between stages.
func (c *Cluster) PooledScratches() []*WorkerScratch {
	c.scratch.mu.Lock()
	defer c.scratch.mu.Unlock()
	return append([]*WorkerScratch(nil), c.scratch.free...)
}
