package rdd

// SetFusionEnabled toggles fused narrow-stage execution process-wide and
// returns the previous setting. It is declared in a _test.go file so that
// only this package's benchmarks and differential tests can reach the
// unfused baseline; no product code can flip fusion.
func SetFusionEnabled(on bool) bool {
	return !fusionOff.Swap(!on)
}

// NumPartitions returns the partition count, fixed when the RDD is built.
func (r *RDD[T]) NumPartitions() int { return r.numPartitions }
