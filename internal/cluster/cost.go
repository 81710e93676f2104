package cluster

// The cost model of virtual compute. An attempt's compute is a pure function
// of the work it counted on its TaskContext — records, feature-pair
// comparisons and vector-distance evaluations — each priced by one constant
// below, so a virtual makespan repeats bit for bit on any host, under any
// load and at any pool size. Each constant is one kernel's time per unit of
// work on a 2-core Intel Xeon host (go1.24, GOMAXPROCS=2), from the median
// ns/op of ten runs of the benchmark its comment names.
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
)

// computeNS is the virtual compute of the attempt: the work it counted,
// priced by the constants above.
func (tc *TaskContext) computeNS() float64 {
	return float64(tc.records*recordNS + tc.comparisons*comparisonNS + tc.distances*distanceNS)
}
