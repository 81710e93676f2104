package experiments

import (
	"time"

	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
)

// LoadBalanceParams configures the FIFO-vs-LPT scheduling comparison — the
// load balancing the paper's §7 names as future work. The gain appears when
// task durations are skewed, which is exactly what uneven Voronoi cluster
// sizes produce (the paper blames them for the Fig. 7/8 upticks at b = 70).
type LoadBalanceParams struct {
	TrainSize, TestSize int
	// b is the training cluster number (default 48).
	b int
	// executors is deliberately close to the cluster count so one
	// oversized cluster straggles (default 16).
	executors int
	Seed      int64
}

func (p LoadBalanceParams) withDefaults() LoadBalanceParams {
	if p.TrainSize <= 0 {
		p.TrainSize = 200_000
	}
	if p.TestSize <= 0 {
		p.TestSize = 10_000
	}
	if p.b <= 0 {
		p.b = 48
	}
	if p.executors <= 0 {
		p.executors = 16
	}
	return p
}

// LoadBalanceRow is one scheduling-policy measurement.
type LoadBalanceRow struct {
	Policy        string
	ExecutionTime time.Duration
}

// LoadBalance runs the identical classification workload under FIFO and LPT
// scheduling and reports the virtual execution times.
func LoadBalance(env *Env, p LoadBalanceParams) ([]LoadBalanceRow, error) {
	p = p.withDefaults()
	data, err := env.BuildPairData(p.TrainSize, p.TestSize, exhibitHardFraction, p.Seed)
	if err != nil {
		return nil, err
	}
	baseCfg := env.Ctx.Cluster().Config()
	baseCfg.Executors = p.executors
	var out []LoadBalanceRow
	for _, policy := range []cluster.SchedulePolicy{cluster.ScheduleFIFO, cluster.ScheduleLPT} {
		cfg := baseCfg
		cfg.Scheduling = policy
		env.ResetEngine(cfg)
		clf, err := core.Train(env.Ctx, data.Train, core.Config{K: exhibitK, B: p.b, C: exhibitC, Seed: p.Seed})
		if err != nil {
			return nil, err
		}
		_, stats, err := clf.Classify(data.TestVecs)
		if err != nil {
			return nil, err
		}
		out = append(out, LoadBalanceRow{Policy: policy.String(), ExecutionTime: stats.VirtualTime})
	}
	return out, nil
}
