package cluster

import "sync/atomic"

// Metrics is the cluster-wide counter registry. All counters are atomic and
// may be read at any time; Snapshot returns a consistent-enough copy for
// reporting (experiment harness output, tests).
type Metrics struct {
	StagesRun        atomic.Int64
	TasksLaunched    atomic.Int64
	TaskFailures     atomic.Int64
	RecordsProcessed atomic.Int64
	// Comparisons counts pairwise distance computations; the paper's
	// Figs. 7-8 report intra- vs cross-cluster comparison counts, which
	// the classifier layer derives from this and its own counters.
	Comparisons           atomic.Int64
	ShuffleBytesWritten   atomic.Int64
	ShuffleRecordsWritten atomic.Int64
	ShuffleBytesRead      atomic.Int64
	BroadcastBytes        atomic.Int64
	BlocksCached          atomic.Int64
	BlockHits             atomic.Int64
	BlockMisses           atomic.Int64
	BlockEvictions        atomic.Int64
	BlockRecomputes       atomic.Int64
	PressureEvents        atomic.Int64
	// SpeculativeTasksLaunched counts speculative copies the virtual
	// schedule started; SpeculativeWins counts those that finished before
	// their primary. SpeculativeWastedNS is the virtual time charged to
	// losing copies (mitigation cost). StragglersInjected counts attempts
	// slowed by the StragglerRate injector.
	SpeculativeTasksLaunched atomic.Int64
	SpeculativeWins          atomic.Int64
	SpeculativeWastedNS      atomic.Int64
	StragglersInjected       atomic.Int64

	// Executor-loss recovery counters. ExecutorFailures counts injected
	// (or operator-triggered) executor kills; MapOutputsLost the shuffle
	// map outputs dropped with them; ExecutorsBlacklisted the kills that
	// pushed an executor over the repeated-failure threshold into backoff.
	// FetchFailures counts reduce-stage attempts aborted by lost map
	// outputs; RecomputedStages the lineage patch-up resubmissions run in
	// response; RecomputedTasks the lost map partitions those patch-ups
	// regenerated (never more than MapOutputsLost — recovery recomputes
	// only what was actually lost).
	ExecutorFailures     atomic.Int64
	MapOutputsLost       atomic.Int64
	ExecutorsBlacklisted atomic.Int64
	FetchFailures        atomic.Int64
	RecomputedStages     atomic.Int64
	RecomputedTasks      atomic.Int64

	// Memory-bounded engine counters. SpillEvents counts blocks written to
	// the disk overflow tier (block cache overflow, shuffle buffers over
	// the executor budget, external-merge runs); SpilledBytes the framed,
	// compressed bytes they put on disk. Like the recovery counters these
	// account mechanism cost separately from work: Records/Comparisons/
	// Shuffle counters stay bit-identical between budgeted and unbounded
	// runs of the same job.
	SpillEvents  atomic.Int64
	SpilledBytes atomic.Int64
}

// MetricsSnapshot is a plain-value copy of Metrics.
type MetricsSnapshot struct {
	StagesRun             int64
	TasksLaunched         int64
	TaskFailures          int64
	RecordsProcessed      int64
	Comparisons           int64
	ShuffleBytesWritten   int64
	ShuffleRecordsWritten int64
	ShuffleBytesRead      int64
	BroadcastBytes        int64
	BlocksCached          int64
	BlockHits             int64
	BlockMisses           int64
	BlockEvictions        int64
	BlockRecomputes       int64
	PressureEvents        int64

	SpeculativeTasksLaunched int64
	SpeculativeWins          int64
	SpeculativeWastedNS      int64
	StragglersInjected       int64

	ExecutorFailures     int64
	MapOutputsLost       int64
	ExecutorsBlacklisted int64
	FetchFailures        int64
	RecomputedStages     int64
	RecomputedTasks      int64

	SpillEvents  int64
	SpilledBytes int64
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		StagesRun:             m.StagesRun.Load(),
		TasksLaunched:         m.TasksLaunched.Load(),
		TaskFailures:          m.TaskFailures.Load(),
		RecordsProcessed:      m.RecordsProcessed.Load(),
		Comparisons:           m.Comparisons.Load(),
		ShuffleBytesWritten:   m.ShuffleBytesWritten.Load(),
		ShuffleRecordsWritten: m.ShuffleRecordsWritten.Load(),
		ShuffleBytesRead:      m.ShuffleBytesRead.Load(),
		BroadcastBytes:        m.BroadcastBytes.Load(),
		BlocksCached:          m.BlocksCached.Load(),
		BlockHits:             m.BlockHits.Load(),
		BlockMisses:           m.BlockMisses.Load(),
		BlockEvictions:        m.BlockEvictions.Load(),
		BlockRecomputes:       m.BlockRecomputes.Load(),
		PressureEvents:        m.PressureEvents.Load(),

		SpeculativeTasksLaunched: m.SpeculativeTasksLaunched.Load(),
		SpeculativeWins:          m.SpeculativeWins.Load(),
		SpeculativeWastedNS:      m.SpeculativeWastedNS.Load(),
		StragglersInjected:       m.StragglersInjected.Load(),

		ExecutorFailures:     m.ExecutorFailures.Load(),
		MapOutputsLost:       m.MapOutputsLost.Load(),
		ExecutorsBlacklisted: m.ExecutorsBlacklisted.Load(),
		FetchFailures:        m.FetchFailures.Load(),
		RecomputedStages:     m.RecomputedStages.Load(),
		RecomputedTasks:      m.RecomputedTasks.Load(),

		SpillEvents:  m.SpillEvents.Load(),
		SpilledBytes: m.SpilledBytes.Load(),
	}
}
