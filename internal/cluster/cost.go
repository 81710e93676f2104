package cluster

// The cost model of virtual time, the one price list every cluster charges.
// An attempt's compute is a pure function of the work it counted on its
// TaskContext — records, feature-pair comparisons and vector-distance
// evaluations — each priced by one constant below; the scheduler and the
// network add fixed terms per stage submission, task attempt and fetched
// block, and bytes over fixed bandwidths. So a virtual makespan repeats bit
// for bit on any host, under any load and at any pool size. Each timed
// constant is one kernel's or the engine's own time per unit on a 2-core
// Intel Xeon host (go1.24, GOMAXPROCS=2 unless its comment says otherwise),
// from the median ns/op of ten runs of the benchmark its comment names.
const (
	// comparisonNS prices one feature-pair comparison (AddComparisons): the
	// Scorer's distance vector of two reports. BenchmarkPairKernel/scorer
	// (internal/pairdist): 2.93 ms/op over 28,680 pairs.
	comparisonNS = 102
	// distanceNS prices one vector-distance evaluation (AddDistances): a
	// kNN search's distance to a training pair or a group centre.
	// BenchmarkClassifyPair/*/grouped (internal/core): ns/op over
	// negdist/op + posdist/op, 1710/44.15 at neg=185 and 1314/36.34 at
	// neg=20, 36-39 ns.
	distanceNS = 37
	// recordNS prices one record a task counts (AddRecords): the RDD layer
	// counts the records that leave a fused narrow chain.
	// BenchmarkNarrowChain/fused (internal/rdd): 58.1 and 58.5 µs/op in two
	// batches of ten for the 2048 records its map-filter-map chain emits
	// from 4096.
	recordNS = 28

	// stageNS prices one stage submission and taskNS one task attempt
	// launched: together the serial scheduler term of a stage, what an
	// empty stage costs the engine. BenchmarkStageOverhead/tasks=1, =8 and
	// =32 (GOMAXPROCS=1, one pool worker): 3.99, 6.48 and 15.87 µs/op, so
	// taskNS = (15,869 − 3,986)/31 and stageNS = 3,986 − taskNS.
	stageNS = 3602
	taskNS  = 383
	// blockNS prices one fetched shuffle block, and one hop of a broadcast.
	// BenchmarkStageOverhead/shuffle=32x32 (GOMAXPROCS=1): 597.2 µs/op for
	// 1,024 blocks, less its two 32-task stages (2 × 15.87 µs) and the
	// recordNS of its 1,024 counted records, over 1,024.
	blockNS = 524

	// networkMBps is the simulated per-executor network bandwidth shuffle
	// reads and broadcasts are charged at, a gigabit-class figure.
	networkMBps = 1000
	// spillMBps is the simulated executor-local disk bandwidth the spill
	// tier charges for writes and read-backs, a local-SSD-class figure.
	spillMBps = 500
)

// computeNS is the virtual compute of the attempt: the work it counted,
// priced by the constants above.
func (tc *TaskContext) computeNS() float64 {
	return float64(tc.records*recordNS + tc.comparisons*comparisonNS + tc.distances*distanceNS)
}

// schedulerNS is the serial scheduler term of a stage that was submitted
// submissions times and launched attempts task attempts in all.
func schedulerNS(submissions, attempts int) float64 {
	return float64(submissions*stageNS + attempts*taskNS)
}

// networkNS is the virtual time to move bytes in blocks fetched blocks over
// one executor's link.
func networkNS(bytes int64, blocks int) float64 {
	return float64(bytes)/(networkMBps*1e6)*1e9 + float64(blocks*blockNS)
}
