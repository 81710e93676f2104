package experiments

import (
	"time"

	"adrdedup/internal/core"
)

// Fig7Params configures the cluster-number sweep (paper Figs. 7 and 8).
type Fig7Params struct {
	// Bs are the training cluster counts to sweep (paper: 10-70).
	Bs []int
	// TrainSize and TestSize (paper: 4M and 10,000; default 400k / 10k).
	TrainSize, TestSize int
	K, C                int
	HardFraction        float64
	Seed                int64
	// PressureMemoryMB enables the Fig. 8(b) memory model: executor
	// memory small enough that low cluster numbers overrun it (joined
	// partitions spill, time out, and retry). 0 disables pressure.
	PressureMemoryMB int
}

func (p Fig7Params) withDefaults() Fig7Params {
	if len(p.Bs) == 0 {
		p.Bs = []int{10, 25, 40, 55, 70}
	}
	if p.TrainSize <= 0 {
		p.TrainSize = 400_000
	}
	if p.TestSize <= 0 {
		p.TestSize = 10_000
	}
	if p.K <= 0 {
		p.K = 9
	}
	if p.C <= 0 {
		p.C = 8
	}
	if p.HardFraction <= 0 {
		p.HardFraction = 0.3
	}
	return p
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
	p = p.withDefaults()
	data, err := env.BuildPairData(p.TrainSize, p.TestSize, p.HardFraction, p.Seed)
	if err != nil {
		return nil, err
	}
	var out []Fig7Point
	for _, b := range p.Bs {
		if p.PressureMemoryMB > 0 {
			cfg := env.Ctx.Cluster().Config()
			cfg.MemoryPerExecutorMB = p.PressureMemoryMB
			cfg.PressureTimeouts = true
			env.ResetEngine(cfg)
		}
		clf, err := core.Train(env.Ctx, data.Train, core.Config{K: p.K, B: b, C: p.C, Seed: p.Seed})
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
