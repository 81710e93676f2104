package cluster

// Test-only API: declared in a _test.go file so that only this package's
// tests can reach it.

const mb = int64(1 << 20)

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

// Reset zeroes every counter.
func (m *Metrics) Reset() {
	m.StagesRun.Store(0)
	m.TasksLaunched.Store(0)
	m.TaskFailures.Store(0)
	m.RecordsProcessed.Store(0)
	m.Comparisons.Store(0)
	m.ShuffleBytesWritten.Store(0)
	m.ShuffleRecordsWritten.Store(0)
	m.ShuffleBytesRead.Store(0)
	m.BroadcastBytes.Store(0)
	m.BlocksCached.Store(0)
	m.BlockHits.Store(0)
	m.BlockMisses.Store(0)
	m.BlockEvictions.Store(0)
	m.BlockRecomputes.Store(0)
	m.PressureEvents.Store(0)
	m.SpeculativeTasksLaunched.Store(0)
	m.SpeculativeWins.Store(0)
	m.SpeculativeWastedNS.Store(0)
	m.StragglersInjected.Store(0)
	m.ExecutorFailures.Store(0)
	m.MapOutputsLost.Store(0)
	m.ExecutorsBlacklisted.Store(0)
	m.FetchFailures.Store(0)
	m.RecomputedStages.Store(0)
	m.RecomputedTasks.Store(0)
	m.SpillEvents.Store(0)
	m.SpilledBytes.Store(0)
}
