package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// aggressiveSpecConfig speculates as eagerly as the knobs allow, maximizing
// commit/cancel window coverage in the tests below.
func aggressiveSpecConfig(executors int, seed int64) Config {
	return Config{
		Executors:               executors,
		CoresPerExecutor:        1,
		Seed:                    seed,
		Speculation:             true,
		SpeculationQuantile:     0.1,
		SpeculationMultiplier:   1.01,
		speculationInterval:     50 * time.Microsecond,
		SpeculationMinRuntimeMS: -1,
	}
}

// TestSpeculationRescuesStraggler: a stage where one task's primary attempt
// stalls must get a speculative duplicate that wins the commit race, and the
// trace must record the launch, the winner, and the cancelled loser.
func TestSpeculationRescuesStraggler(t *testing.T) {
	cfg := aggressiveSpecConfig(4, 1)
	cfg.Trace = true
	c := New(cfg)
	const tasks = 8
	stats, err := c.RunStage("straggle", tasks, func(tc *TaskContext) error {
		if tc.Task() == 3 && !tc.Speculative() {
			// Primary copy of task 3 stalls: 200ms of virtual cost and a
			// long cancellable real block.
			tc.Delay(2*time.Second, 200e6)
		}
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
	ts := stats.TaskStats[3]
	if !ts.Speculative || !ts.SpecWinner {
		t.Errorf("task 3 stat = %+v, want Speculative and SpecWinner", ts)
	}
	if got := c.Metrics().RecordsProcessed.Load(); got != tasks {
		t.Errorf("RecordsProcessed = %d, want %d (losing attempt leaked a commit)", got, tasks)
	}
	var sawLaunch, sawWinner, sawLoser bool
	for _, e := range c.Tracer().Snapshot() {
		switch e.Kind {
		case EventTaskSpecLaunch:
			sawLaunch = true
		case EventTaskSuccess:
			if e.Outcome == "winner" && e.Task == 3 {
				sawWinner = true
			}
		case EventTaskCancelled:
			if e.Outcome == "loser" && e.Task == 3 {
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
// the duplicate finishes long before the straggler's virtual charge.
func TestSpeculationMakespanReduction(t *testing.T) {
	run := func(speculate bool) time.Duration {
		cfg := aggressiveSpecConfig(4, 1)
		cfg.Speculation = speculate
		c := New(cfg)
		stats, err := c.RunStage("skew", 8, func(tc *TaskContext) error {
			if tc.Task() == 0 && !tc.Speculative() {
				tc.Delay(time.Second, 500e6)
			}
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
		cfg.StragglerRealDelayMS = 2
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
// speculative discrete-event schedule's makespan is bounded by the plain
// list schedule of the primary durations (the no-speculation model) —
// duplicate copies only ever occupy otherwise-idle slots.
func TestSpeculativeMakespanNeverExceedsBaseline(t *testing.T) {
	f := func(raw []uint16, execs uint8, flags uint64) bool {
		n := len(raw)
		tasks := make([]specTaskInput, n)
		primary := make([]float64, n)
		for i, r := range raw {
			primary[i] = float64(r) + 1
			tasks[i] = specTaskInput{
				primaryNS:  primary[i],
				specNS:     float64(r%97) + 1,
				hasSpec:    flags>>(uint(i)%64)&1 == 1,
				specCanWin: flags>>((uint(i)+1)%64)&1 == 1,
			}
		}
		for _, policy := range []SchedulePolicy{ScheduleFIFO, ScheduleLPT} {
			c := New(Config{Executors: int(execs)%8 + 1, CoresPerExecutor: 1,
				Scheduling: policy, Speculation: true, SpeculationQuantile: 0.5})
			base := c.listSchedule(primary)
			specMakespan, places := c.speculativeSchedule(tasks)
			if specMakespan > base+1e-6 {
				return false
			}
			for i, p := range places {
				if p.specSlot < 0 && p.specChargedNS != 0 {
					return false
				}
				if p.primaryChargedNS < 0 || p.specChargedNS < 0 {
					return false
				}
				if !tasks[i].hasSpec && p.specSlot >= 0 {
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

// TestSpeculationOffIsBitIdentical: with speculation disabled the engine
// must produce the exact stage accounting it always has — same makespan,
// slots, attempts — for a seeded fault-injected workload, pinning that the
// refactor did not disturb the non-speculative path.
func TestSpeculationOffIsBitIdentical(t *testing.T) {
	run := func() StageStats {
		c := New(Config{Executors: 3, CoresPerExecutor: 2, Seed: 42, FailureRate: 0.3})
		stats, err := c.RunStage("pin", 12, func(tc *TaskContext) error {
			tc.AddVirtualNS(float64(tc.Task()+1) * 1e6)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if a.Attempts != b.Attempts || a.Failures != b.Failures {
		t.Errorf("attempt accounting not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.TaskStats {
		// Slots depend on measured real compute and are not asserted;
		// the attempt/failure pattern is seed-deterministic.
		if a.TaskStats[i].Attempts != b.TaskStats[i].Attempts ||
			a.TaskStats[i].Failures != b.TaskStats[i].Failures {
			t.Errorf("task %d attempt pattern differs across identical runs", i)
		}
		if a.TaskStats[i].SpecSlot != -1 {
			t.Errorf("task %d has SpecSlot %d without speculation", i, a.TaskStats[i].SpecSlot)
		}
	}
}

// TestSpeculationRaceStress drives many clusters concurrently, each running
// stages under the most aggressive speculation settings plus fault and
// straggler injection, to expose commit/cancel races to the race detector.
// Wired into `make race`; short mode caps the load.
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
			cfg.StragglerRealDelayMS = 1
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

// TestHeapSchedulerMatchesLinearReference pins the min-heap list scheduler
// to the O(tasks x slots) linear-scan reference it replaced: identical
// makespans AND identical per-task slot assignments (including tie-breaks)
// on randomized durations, both policies.
func TestHeapSchedulerMatchesLinearReference(t *testing.T) {
	// linearScheduleSlots is the replaced implementation, kept as the
	// behavioural reference: earliest-available slot, lowest index wins
	// ties.
	linearScheduleSlots := func(c *Cluster, durations []float64) (float64, []int) {
		slots := c.SlotCount()
		if slots < 1 {
			slots = 1
		}
		avail := make([]float64, slots)
		assigned := make([]int, len(durations))
		for _, task := range policyOrder(durations, c.cfg.Scheduling) {
			best := 0
			for s := 1; s < slots; s++ {
				if avail[s] < avail[best] {
					best = s
				}
			}
			avail[best] += durations[task]
			assigned[task] = best
		}
		makespan := 0.0
		for _, v := range avail {
			if v > makespan {
				makespan = v
			}
		}
		return makespan, assigned
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		durations := make([]float64, n)
		for i := range durations {
			// Duplicates on purpose: tie-breaking is the delicate part.
			durations[i] = float64(rng.Intn(8))
		}
		execs := 1 + rng.Intn(9)
		cores := 1 + rng.Intn(3)
		for _, policy := range []SchedulePolicy{ScheduleFIFO, ScheduleLPT} {
			c := New(Config{Executors: execs, CoresPerExecutor: cores, Scheduling: policy})
			wantM, wantSlots := linearScheduleSlots(c, durations)
			gotM, gotSlots := c.listScheduleSlots(durations)
			if gotM != wantM {
				t.Fatalf("trial %d policy %v: makespan %v != reference %v", trial, policy, gotM, wantM)
			}
			for i := range wantSlots {
				if gotSlots[i] != wantSlots[i] {
					t.Fatalf("trial %d policy %v task %d: slot %d != reference %d (durations %v)",
						trial, policy, i, gotSlots[i], wantSlots[i], durations)
				}
			}
		}
	}
}
