package experiments

import (
	"fmt"
	"time"

	"adrdedup/internal/cluster"
)

// The straggler-mitigation experiment's workload: a skewed stage workload —
// the all-pairs partition skew the paper's §4.3.2 names as its scaling
// limiter — run with speculative execution off and on. Stragglers come from
// the engine's deterministic injector (a virtual charge standing for the
// slowdown's cost, plus a real cancellable stall the monitor can race), on
// top of Zipf-like task-duration skew.
const (
	// speculationTasks per stage and speculationRounds stages per
	// configuration.
	speculationTasks     = 48
	speculationRounds    = 4
	speculationExecutors = 8
	// speculationBaseTaskMS is the virtual duration of an unskewed task;
	// speculationSkew multiplies the duration of the heaviest task.
	speculationBaseTaskMS = 4
	speculationSkew       = 3
	// The engine's straggler injector (see cluster.Config). The real delay
	// is long enough that the monitor reliably races a duplicate before the
	// straggler's primary wakes and wins its own commit.
	stragglerRate        = 0.1
	stragglerVirtualMS   = 400
	stragglerRealDelayMS = 25
)

// SpeculationRow is one configuration's measurement.
type SpeculationRow struct {
	Speculation         bool
	ExecutionTime       time.Duration
	SpeculativeLaunches int64
	SpeculativeWins     int64
	WastedTime          time.Duration
	Stragglers          int64
}

// SpeculationSpeedup returns the off/on makespan ratio of a two-row result.
func SpeculationSpeedup(rows []SpeculationRow) float64 {
	var off, on time.Duration
	for _, r := range rows {
		if r.Speculation {
			on = r.ExecutionTime
		} else {
			off = r.ExecutionTime
		}
	}
	if on <= 0 {
		return 0
	}
	return float64(off) / float64(on)
}

// Speculation runs the identical skewed straggler-injected workload with
// speculation disabled and enabled and reports virtual execution times plus
// the mitigation accounting (launches, wins, wasted time).
func Speculation(env *Env, seed int64) ([]SpeculationRow, error) {
	baseCfg := env.Ctx.Cluster().Config()
	baseCfg.Executors = speculationExecutors
	baseCfg.CoresPerExecutor = 1
	baseCfg.Seed = seed
	baseCfg.StragglerRate = stragglerRate
	baseCfg.StragglerVirtualMS = stragglerVirtualMS
	baseCfg.StragglerRealDelayMS = stragglerRealDelayMS
	// Speculate once half the stage has committed: the workload's median is
	// representative early, and a late quantile leaves tail stragglers
	// unmitigated.
	baseCfg.SpeculationQuantile = 0.5

	var out []SpeculationRow
	for _, speculate := range []bool{false, true} {
		cfg := baseCfg
		cfg.Speculation = speculate
		env.ResetEngine(cfg)
		cl := env.Ctx.Cluster()
		cl.ResetClock()
		for round := 0; round < speculationRounds; round++ {
			// Zipf-like duration skew: task i costs base * (1 + (skew-1)/(1+i)),
			// so task 0 is speculationSkew x base and the tail is near-uniform —
			// the shape of uneven Voronoi cell sizes.
			_, err := cl.RunStage(fmt.Sprintf("speculation.skew#%d", round), speculationTasks,
				func(tc *cluster.TaskContext) error {
					i := float64(tc.Task())
					tc.AddVirtualNS(speculationBaseTaskMS * 1e6 * (1 + (speculationSkew-1)/(1+i)))
					return nil
				})
			if err != nil {
				return nil, err
			}
		}
		m := cl.Metrics().Snapshot()
		out = append(out, SpeculationRow{
			Speculation:         speculate,
			ExecutionTime:       cl.VirtualElapsed(),
			SpeculativeLaunches: m.SpeculativeTasksLaunched,
			SpeculativeWins:     m.SpeculativeWins,
			WastedTime:          time.Duration(m.SpeculativeWastedNS),
			Stragglers:          m.StragglersInjected,
		})
	}
	return out, nil
}
