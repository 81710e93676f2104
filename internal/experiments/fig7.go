package experiments

import (
	"fmt"
	"time"

	"adrdedup/internal/core"
)

// Fig7Params configures the cluster-number sweep (paper Figs. 7 and 8).
type Fig7Params struct {
	// bs are the training cluster counts to sweep (paper: 10-70).
	bs []int
	// trainSize and testSize (paper: 4M and 10,000).
	trainSize, testSize int
	seed                int64
	// pressureMemoryBytes enables the Fig. 8(b) memory model: executor
	// memory small enough that low cluster numbers overrun it (joined
	// partitions spill, time out, and retry). 0 disables pressure.
	pressureMemoryBytes int64
}

// Fig7Point is one cluster-number measurement, covering Figs. 7(a)-(c) and
// 8(a)-(b).
type Fig7Point struct {
	B                         int
	IntraClusterComparisons   int64
	AdditionalClustersChecked int64
	CrossClusterComparisons   int64
	CrossIntraRatio           float64
	ExecutionTime             time.Duration
	PressureEvents            int64
	TaskRetries               int64
}

// Fig7 sweeps the training cluster number b and reports the comparison
// counts (Fig. 7), the cross/intra ratio (Fig. 8(a)), and the virtual
// execution time (Fig. 8(b)).
func Fig7(env *Env, p Fig7Params) ([]Fig7Point, error) {
	data, err := env.BuildPairData(p.trainSize, p.testSize, exhibitHardFraction, p.seed)
	if err != nil {
		return nil, err
	}
	var out []Fig7Point
	for _, b := range p.bs {
		if p.pressureMemoryBytes > 0 {
			cfg := env.Ctx.Cluster().Config()
			cfg.MemoryPerExecutorBytes = p.pressureMemoryBytes
			cfg.PressureTimeouts = true
			env.ResetEngine(cfg)
		}
		clf, err := core.Train(env.Ctx, data.Train, core.Config{K: exhibitK, B: b, C: exhibitC, Seed: p.seed})
		if err != nil {
			return nil, err
		}
		metricsBefore := env.Ctx.Cluster().Metrics().Snapshot()
		_, stats, err := clf.Classify(data.TestVecs)
		if err != nil {
			return nil, err
		}
		metricsAfter := env.Ctx.Cluster().Metrics().Snapshot()
		point := Fig7Point{
			B:                         b,
			IntraClusterComparisons:   stats.IntraClusterComparisons,
			AdditionalClustersChecked: stats.AdditionalClustersChecked,
			CrossClusterComparisons:   stats.CrossClusterComparisons,
			ExecutionTime:             stats.VirtualTime,
			PressureEvents:            metricsAfter.PressureEvents - metricsBefore.PressureEvents,
			TaskRetries:               metricsAfter.TaskFailures - metricsBefore.TaskFailures,
		}
		if stats.IntraClusterComparisons > 0 {
			point.CrossIntraRatio = float64(stats.CrossClusterComparisons) /
				float64(stats.IntraClusterComparisons)
		}
		out = append(out, point)
	}
	return out, nil
}

// fig7Tables is Fig. 7: the comparison counts by cluster number.
func fig7Tables(points []Fig7Point) []Table {
	t := newTable("Fig 7: comparison counts by training cluster number",
		"b", "intra comparisons", "additional clusters", "cross comparisons")
	for _, pt := range points {
		t.add(count(pt.B), count(pt.IntraClusterComparisons), count(pt.AdditionalClustersChecked), count(pt.CrossClusterComparisons))
	}
	return []Table{t}
}

// fig8Tables is Fig. 8: the cross/intra ratio and the time by cluster number,
// on executors with pressureMemoryBytes each.
func (p Fig7Params) fig8Tables(points []Fig7Point) []Table {
	t := newTable(fmt.Sprintf("Fig 8: cross/intra ratio and execution time by cluster number (%d MiB executors)",
		p.pressureMemoryBytes>>20), "b", "cross/intra", "exec time", "pressure", "retries")
	for _, pt := range points {
		t.add(count(pt.B), ratio(pt.CrossIntraRatio, 4), virtual(pt.ExecutionTime), count(pt.PressureEvents), count(pt.TaskRetries))
	}
	return []Table{t}
}
