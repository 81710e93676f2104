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
	trainSize, testSize int
	// b is the training cluster number.
	b int
	// executors is deliberately close to the cluster count so one
	// oversized cluster straggles.
	executors int
	seed      int64
}

// LoadBalanceRow is one scheduling-policy measurement.
type LoadBalanceRow struct {
	Policy        string
	ExecutionTime time.Duration
}

// LoadBalance runs the identical classification workload under FIFO and LPT
// scheduling and reports the virtual execution times.
func LoadBalance(env *Env, p LoadBalanceParams) ([]LoadBalanceRow, error) {
	data, err := env.BuildPairData(p.trainSize, p.testSize, exhibitHardFraction, p.seed)
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
		_, stats, err := classify(env, data, core.Config{K: exhibitK, B: p.b, C: exhibitC, Seed: p.seed})
		if err != nil {
			return nil, err
		}
		out = append(out, LoadBalanceRow{Policy: policy.String(), ExecutionTime: stats.VirtualTime})
	}
	return out, nil
}

func loadBalanceTables(rows []LoadBalanceRow) []Table {
	t := newTable("Load balancing (paper §7 future work): FIFO vs LPT scheduling", "policy", "exec time")
	for _, r := range rows {
		t.add(text(r.Policy), virtual(r.ExecutionTime))
	}
	return []Table{t}
}
