package experiments

import (
	"fmt"
	"time"

	"adrdedup/internal/cluster"
)

// The executor-loss recovery exhibit's workload: a fixed shuffle-heavy job
// (map → shuffle → reduce rounds with deterministic virtual task costs) run
// clean and then under deterministic executor kills. The overhead ratio —
// faulty over clean virtual makespan — measures what lineage recovery
// costs: lost map outputs recomputed, stages resubmitted, and surviving
// executors carrying the drained slots.
const (
	// recoveryRounds is the number of map→reduce shuffle rounds.
	recoveryRounds = 6
	// recoveryMapTasks and recoveryReduceTasks size each round's stages.
	recoveryMapTasks    = 32
	recoveryReduceTasks = 8
	recoveryExecutors   = 8
	// recoveryTaskMS is the fixed virtual duration of every task.
	recoveryTaskMS = 5
	// recoveryFailureRate is the per-(stage, executor) kill probability of
	// the faulty run (the clean run uses 0).
	recoveryFailureRate = 0.1
)

// RecoveryRow is one configuration's measurement.
type RecoveryRow struct {
	Faulty           bool
	ExecutionTime    time.Duration
	ExecutorFailures int64
	MapOutputsLost   int64
	FetchFailures    int64
	RecomputedTasks  int64
	RecomputedStages int64
}

// RecoveryOverhead returns the faulty/clean virtual makespan ratio of
// Recovery's two rows — the headline recovery-cost metric.
func RecoveryOverhead(rows []RecoveryRow) float64 {
	return timeRatio(rows[1].ExecutionTime, rows[0].ExecutionTime)
}

// Recovery runs the identical shuffle workload without and with executor
// kills and reports virtual execution times plus the recovery accounting.
// Both runs must produce identical committed shuffle reads (recovery is
// correct, not just bounded); Recovery returns an error if they diverge.
func Recovery(env *Env, seed int64) ([]RecoveryRow, error) {
	baseCfg := env.Ctx.Cluster().Config()
	baseCfg.Executors = recoveryExecutors
	baseCfg.CoresPerExecutor = 1
	baseCfg.Seed = seed

	var out []RecoveryRow
	var reads []int64
	for _, faulty := range []bool{false, true} {
		cfg := baseCfg
		cfg.ExecutorFailureRate = 0
		if faulty {
			cfg.ExecutorFailureRate = recoveryFailureRate
		}
		env.ResetEngine(cfg)
		cl := env.Ctx.Cluster()
		cl.ResetClock()
		taskNS := recoveryTaskMS * 1e6
		for round := 0; round < recoveryRounds; round++ {
			sh := cl.Shuffles().Register()
			mapOutput := func(tc *cluster.TaskContext, part int) error {
				tc.AddVirtualNS(taskNS)
				tc.WriteShuffleAs(sh, part%recoveryReduceTasks, part, []int{part}, 4, 256)
				return nil
			}
			cl.Shuffles().SetRecompute(sh, func(lost []int) error {
				_, err := cl.RunRecoveryStage(fmt.Sprintf("recovery.map#%d.recompute", round),
					len(lost), func(tc *cluster.TaskContext) error {
						return mapOutput(tc, lost[tc.Task()])
					})
				return err
			})
			if _, err := cl.RunStage(fmt.Sprintf("recovery.map#%d", round), recoveryMapTasks,
				func(tc *cluster.TaskContext) error {
					return mapOutput(tc, tc.Task())
				}); err != nil {
				return nil, err
			}
			cl.Shuffles().MarkDone(sh)
			if _, err := cl.RunStage(fmt.Sprintf("recovery.reduce#%d", round), recoveryReduceTasks,
				func(tc *cluster.TaskContext) error {
					blocks, err := tc.FetchShuffle(sh, tc.Task())
					if err != nil {
						return err
					}
					tc.AddVirtualNS(taskNS)
					tc.AddRecords(int64(len(blocks)))
					return nil
				}); err != nil {
				return nil, err
			}
			cl.Shuffles().Unregister(sh)
		}
		m := cl.Metrics().Snapshot()
		reads = append(reads, m.RecordsProcessed)
		out = append(out, RecoveryRow{
			Faulty:           faulty,
			ExecutionTime:    cl.VirtualElapsed(),
			ExecutorFailures: m.ExecutorFailures,
			MapOutputsLost:   m.MapOutputsLost,
			FetchFailures:    m.FetchFailures,
			RecomputedTasks:  m.RecomputedTasks,
			RecomputedStages: m.RecomputedStages,
		})
	}
	if reads[0] != reads[1] {
		return nil, fmt.Errorf("recovery diverged: clean run read %d shuffle blocks, faulty %d",
			reads[0], reads[1])
	}
	return out, nil
}

func recoveryTables(rows []RecoveryRow) []Table {
	t := newTable("Executor-loss recovery on the shuffle workload (clean vs deterministic kills)",
		"kills", "exec time", "lost", "fetch fails", "recomp tasks", "recomp stages")
	for _, r := range rows {
		t.add(text(onOff(r.Faulty)), virtual(r.ExecutionTime), count(r.MapOutputsLost), count(r.FetchFailures),
			count(r.RecomputedTasks), count(r.RecomputedStages))
	}
	t.note("recovery overhead", speedup(RecoveryOverhead(rows)))
	return []Table{t}
}
