package cluster

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// aggressiveSpecConfig speculates as eagerly as the knobs allow, maximizing
// the copies the tests below see.
func aggressiveSpecConfig(executors int, seed int64) Config {
	return Config{
		Executors:             executors,
		CoresPerExecutor:      1,
		Seed:                  seed,
		Speculation:           true,
		SpeculationQuantile:   0.1,
		SpeculationMultiplier: 1.01,
	}
}

// oneStraggler sets cfg's injector to slow one first attempt in a stage of
// tasks tasks by virtualMS, and returns the config with the first seed at
// which exactly one task of a fresh cluster's first stage straggles, and
// that task.
func oneStraggler(t *testing.T, cfg Config, tasks int, virtualMS float64) (Config, int) {
	t.Helper()
	cfg.StragglerRate = 1 / float64(tasks)
	cfg.StragglerVirtualMS = virtualMS
	for seed := int64(1); seed < 1000; seed++ {
		cfg.Seed = seed
		c := &Cluster{cfg: cfg.withDefaults()}
		slow := []int{}
		for task := 0; task < tasks; task++ {
			if c.injectStraggler(1, task, 0) {
				slow = append(slow, task)
			}
		}
		if len(slow) == 1 {
			return cfg, slow[0]
		}
	}
	t.Fatal("no seed slows exactly one task")
	return cfg, -1
}

// TestSpeculationRescuesStraggler: a stage where the injector slows one
// task's primary attempt must get a speculative copy that wins, and the
// trace must record the launch, the winner, and the cancelled loser.
func TestSpeculationRescuesStraggler(t *testing.T) {
	const tasks = 8
	cfg, slow := oneStraggler(t, aggressiveSpecConfig(4, 1), tasks, 200)
	cfg.Trace = true
	c := New(cfg)
	stats, err := c.RunStage("straggle", tasks, func(tc *TaskContext) error {
		tc.AddRecords(1)
		tc.PublishResult(tc.Task())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpeculativeTasks < 1 {
		t.Fatalf("no speculative task launched: %+v", stats)
	}
	if stats.SpeculativeWins < 1 {
		t.Fatalf("speculative copy did not win the race: %+v", stats)
	}
	if got := c.Metrics().RecordsProcessed.Load(); got != tasks {
		t.Errorf("RecordsProcessed = %d, want %d (losing attempt leaked a commit)", got, tasks)
	}
	var sawLaunch, sawWinner, sawLoser bool
	for _, e := range c.Tracer().Snapshot() {
		switch e.Kind {
		case EventTaskSpecLaunch:
			sawLaunch = sawLaunch || e.Task == slow
		case EventTaskSuccess:
			if e.Outcome == "winner" && e.Task == slow && e.Speculative {
				sawWinner = true
			}
		case EventTaskCancelled:
			if e.Outcome == "loser" && e.Task == slow {
				sawLoser = true
			}
		}
	}
	if !sawLaunch || !sawWinner || !sawLoser {
		t.Errorf("trace missing speculation events: launch=%v winner=%v loser=%v",
			sawLaunch, sawWinner, sawLoser)
	}
}

// TestSpeculationMakespanReduction: the virtual makespan with a winning
// speculative copy must undercut the same stage without speculation, since
// the copy finishes long before the straggler's virtual charge.
func TestSpeculationMakespanReduction(t *testing.T) {
	const tasks = 8
	straggling, _ := oneStraggler(t, aggressiveSpecConfig(4, 1), tasks, 500)
	run := func(speculate bool) time.Duration {
		cfg := straggling
		cfg.Speculation = speculate
		c := New(cfg)
		stats, err := c.RunStage("skew", tasks, func(tc *TaskContext) error {
			tc.AddVirtualNS(1e6)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.VirtualDuration
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Errorf("speculation makespan %v not below baseline %v", with, without)
	}
}

// TestSpeculationExactlyOneCommit: under aggressive speculation plus fault
// and straggler injection, every task commits exactly once — counters see
// one AddRecords per task and the published results are the winners'.
func TestSpeculationExactlyOneCommit(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := aggressiveSpecConfig(4, seed)
		cfg.FailureRate = 0.3
		cfg.MaxTaskRetries = 12
		cfg.StragglerRate = 0.4
		cfg.StragglerVirtualMS = 20
		c := New(cfg)
		const tasks = 24
		results, stats, err := c.RunStageResults("one-commit", tasks, func(tc *TaskContext) error {
			tc.AddRecords(1)
			tc.AddComparisons(3)
			tc.PublishResult(tc.Task() * 10)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		m := c.Metrics().Snapshot()
		if m.RecordsProcessed != tasks {
			t.Errorf("seed %d: RecordsProcessed = %d, want %d", seed, m.RecordsProcessed, tasks)
		}
		if m.Comparisons != 3*tasks {
			t.Errorf("seed %d: Comparisons = %d, want %d", seed, m.Comparisons, 3*tasks)
		}
		for i, r := range results {
			if r.(int) != i*10 {
				t.Errorf("seed %d: result[%d] = %v, want %d", seed, i, r, i*10)
			}
		}
		if stats.SpeculativeWins > stats.SpeculativeTasks {
			t.Errorf("seed %d: wins %d exceed launches %d", seed, stats.SpeculativeWins, stats.SpeculativeTasks)
		}
	}
}

// TestSpeculativeMakespanNeverExceedsBaseline: for any chain durations, the
// virtual schedule's makespan is bounded by the schedule of the primary
// durations alone (the no-speculation model) — duplicate copies only ever
// occupy otherwise-idle slots.
func TestSpeculativeMakespanNeverExceedsBaseline(t *testing.T) {
	f := func(raw []uint16, execs uint8, flags uint64) bool {
		tasks := specInputs(raw, flags)
		primary := make([]float64, len(tasks))
		for i := range tasks {
			primary[i] = tasks[i].primaryNS
		}
		for _, policy := range []SchedulePolicy{ScheduleFIFO, ScheduleLPT} {
			c := New(Config{Executors: int(execs)%8 + 1, CoresPerExecutor: 1,
				Scheduling: policy, Speculation: true, SpeculationQuantile: 0.5})
			base := schedule(c, primary)
			if c.virtualSchedule(tasks, c.SlotCount()) > base+1e-6 {
				return false
			}
			for i, p := range tasks {
				if !p.specStarted && p.specChargedNS != 0 {
					return false
				}
				if p.primaryChargedNS < 0 || p.specChargedNS < 0 {
					return false
				}
				if !tasks[i].hasSpec && p.specStarted {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// specInputs derives speculative chain inputs from quick-check values:
// primaries raw+1, speculative copies raw%97+1, and the flags' bits deciding
// which tasks ran a speculative chain and which of those could win.
func specInputs(raw []uint16, flags uint64) []virtualTask {
	tasks := make([]virtualTask, len(raw))
	for i, r := range raw {
		tasks[i] = virtualTask{
			primaryNS:  float64(r) + 1,
			specNS:     float64(r%97) + 1,
			hasSpec:    flags>>(uint(i)%64)&1 == 1,
			specCanWin: flags>>((uint(i)+1)%64)&1 == 1,
		}
	}
	return tasks
}

// TestSpeculationOffIsBitIdentical: with speculation disabled the engine
// must produce the exact stage accounting it always has — same attempts,
// failures and per-task attempt pattern, and nothing speculative — for a
// seeded fault-injected workload, pinning that the speculative machinery
// does not disturb the non-speculative path.
func TestSpeculationOffIsBitIdentical(t *testing.T) {
	run := func() (StageStats, map[int][2]int) {
		c := New(Config{Executors: 3, CoresPerExecutor: 2, Seed: 42, FailureRate: 0.3, Trace: true})
		stats, err := c.RunStage("pin", 12, func(tc *TaskContext) error {
			tc.AddVirtualNS(float64(tc.Task()+1) * 1e6)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Per task: attempts started and injected failures, from the
		// trace.
		pattern := map[int][2]int{}
		for _, e := range c.Tracer().Snapshot() {
			if e.Speculative || e.Kind == EventTaskSpecLaunch {
				t.Errorf("speculative event without speculation: %+v", e)
			}
			p := pattern[e.Task]
			switch e.Kind {
			case EventTaskStart:
				p[0]++
			case EventTaskFailInjected:
				p[1]++
			}
			pattern[e.Task] = p
		}
		return stats, pattern
	}
	a, pa := run()
	b, pb := run()
	if a.Attempts != b.Attempts || a.Failures != b.Failures {
		t.Errorf("attempt accounting not deterministic: %+v vs %+v", a, b)
	}
	if a.SpeculativeTasks != 0 || a.WastedDuration != 0 {
		t.Errorf("speculative accounting without speculation: %+v", a)
	}
	// The attempt/failure pattern is seed-deterministic.
	if fmt.Sprint(pa) != fmt.Sprint(pb) {
		t.Errorf("attempt pattern differs across identical runs:\n%v\n%v", pa, pb)
	}
	if a.Failures == 0 {
		t.Error("no injected failure; the test is vacuous")
	}
}

// TestSpeculationRaceStress drives many clusters concurrently, each running
// stages under the most aggressive speculation settings plus fault and
// straggler injection, to expose races between pool workers, the commit
// point and the shared shuffle service to the race detector. Wired into
// `make race`; short mode caps the load.
func TestSpeculationRaceStress(t *testing.T) {
	clusters, stages := 6, 8
	if testing.Short() {
		clusters, stages = 2, 3
	}
	var wg sync.WaitGroup
	errs := make(chan error, clusters)
	for ci := 0; ci < clusters; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cfg := aggressiveSpecConfig(2+ci%3, int64(ci+1))
			cfg.FailureRate = 0.3
			cfg.MaxTaskRetries = 12
			cfg.StragglerRate = 0.5
			cfg.StragglerVirtualMS = 10
			cfg.Trace = true
			cfg.traceCapacity = 1 << 12
			c := New(cfg)
			for s := 0; s < stages; s++ {
				shID := c.Shuffles().Register()
				tasks := 8 + s
				_, err := c.RunStage(fmt.Sprintf("stress-map-%d", s), tasks, func(tc *TaskContext) error {
					tc.AddRecords(1)
					tc.WriteShuffle(shID, tc.Task()%4, []int64{int64(tc.Task())}, 1, 8)
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				c.Shuffles().MarkDone(shID)
				results, _, err := c.RunStageResults(fmt.Sprintf("stress-reduce-%d", s), 4, func(tc *TaskContext) error {
					blocks, ferr := tc.FetchShuffle(shID, tc.Task())
					if ferr != nil {
						return ferr
					}
					tc.PublishResult(len(blocks))
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				total := 0
				for _, r := range results {
					total += r.(int)
				}
				if total != tasks {
					errs <- fmt.Errorf("cluster %d stage %d: %d shuffle blocks visible, want %d", ci, s, total, tasks)
					return
				}
				c.Shuffles().Unregister(shID)
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
