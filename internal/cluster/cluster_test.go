package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunStageRunsAllTasks(t *testing.T) {
	c := New(Config{Executors: 2, CoresPerExecutor: 2})
	var ran atomic.Int64
	stats, err := c.RunStage("count", 10, func(tc *TaskContext) error {
		ran.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 10 {
		t.Errorf("ran %d tasks, want 10", ran.Load())
	}
	if stats.Tasks != 10 || stats.Attempts != 10 || stats.Failures != 0 {
		t.Errorf("unexpected stats: %+v", stats)
	}
}

func TestRunStagePropagatesTaskError(t *testing.T) {
	c := New(Config{})
	boom := errors.New("boom")
	_, err := c.RunStage("failing", 4, func(tc *TaskContext) error {
		if tc.Task() == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestFaultInjectionRetriesAndSucceeds(t *testing.T) {
	c := New(Config{FailureRate: 0.3, MaxTaskRetries: 20, Seed: 1})
	var attempts atomic.Int64
	stats, err := c.RunStage("flaky", 50, func(tc *TaskContext) error {
		attempts.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failures == 0 {
		t.Error("expected some injected failures at rate 0.3")
	}
	if stats.Attempts != int(attempts.Load()) {
		t.Errorf("stats.Attempts=%d, actual closure invocations=%d", stats.Attempts, attempts.Load())
	}
	if stats.Attempts != stats.Tasks+stats.Failures {
		t.Errorf("attempts %d != tasks %d + failures %d", stats.Attempts, stats.Tasks, stats.Failures)
	}
}

func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() int {
		c := New(Config{FailureRate: 0.3, MaxTaskRetries: 20, Seed: 42})
		stats, err := c.RunStage("flaky", 30, func(tc *TaskContext) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return stats.Failures
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different failure counts: %d vs %d", a, b)
	}
}

func TestTaskExhaustsRetries(t *testing.T) {
	// FailureRate 1.0 fails every attempt; the stage must error out.
	c := New(Config{FailureRate: 1.0, MaxTaskRetries: 3, Seed: 7})
	_, err := c.RunStage("doomed", 1, func(tc *TaskContext) error { return nil })
	if !errors.Is(err, ErrTaskFailed) {
		t.Errorf("err = %v, want ErrTaskFailed", err)
	}
}

func TestShuffleCommitOnSuccessOnly(t *testing.T) {
	c := New(Config{FailureRate: 0.5, MaxTaskRetries: 50, Seed: 3})
	sh := c.Shuffles().Register()
	_, err := c.RunStage("map", 8, func(tc *TaskContext) error {
		tc.WriteShuffle(sh, 0, []int{tc.Task()}, 1, 8)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Shuffles().MarkDone(sh)
	var got []any
	_, err = c.RunStage("reduce", 1, func(tc *TaskContext) error {
		var ferr error
		got, ferr = tc.FetchShuffle(sh, 0)
		return ferr
	})
	if err != nil {
		t.Fatal(err)
	}
	// Despite retries, exactly one committed block per map task.
	if len(got) != 8 {
		t.Errorf("fetched %d blocks, want 8 (failed attempts must not commit)", len(got))
	}
	seen := make(map[int]bool)
	for _, b := range got {
		v := b.([]int)[0]
		if seen[v] {
			t.Errorf("duplicate committed block for task %d", v)
		}
		seen[v] = true
	}
}

func TestShuffleFetchChargesVirtualTime(t *testing.T) {
	c := New(Config{})
	sh := c.Shuffles().Register()
	_, err := c.RunStage("map", 1, func(tc *TaskContext) error {
		tc.WriteShuffle(sh, 0, []byte{1}, 1, 10*1e9) // 10GB
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	before := c.VirtualElapsed()
	_, err = c.RunStage("reduce", 1, func(tc *TaskContext) error {
		_, ferr := tc.FetchShuffle(sh, 0)
		return ferr
	})
	if err != nil {
		t.Fatal(err)
	}
	delta := c.VirtualElapsed() - before
	// 10GB at 1000MB/s = 10s plus one block's latency.
	if delta < 10*time.Second {
		t.Errorf("virtual delta %v, want >= 10s for simulated transfer", delta)
	}
}

func TestListScheduleMakespan(t *testing.T) {
	c := New(Config{Executors: 2, CoresPerExecutor: 1})
	// 4 equal tasks on 2 slots: makespan = 2 x task duration.
	d := []float64{100, 100, 100, 100}
	if got := schedule(c, d); got != 200 {
		t.Errorf("makespan = %v, want 200", got)
	}
	// Unequal tasks: greedy earliest-slot assignment.
	d = []float64{300, 100, 100, 100}
	// slot0: 300; slot1: 100+100+100 = 300.
	if got := schedule(c, d); got != 300 {
		t.Errorf("makespan = %v, want 300", got)
	}
}

func TestVirtualTimeScalesWithExecutors(t *testing.T) {
	// The same workload must have a smaller virtual makespan on more
	// executors — the property Figs. 9-10 rely on.
	makespan := func(executors int) time.Duration {
		c := New(Config{Executors: executors, CoresPerExecutor: 1})
		_, err := c.RunStage("work", 20, func(tc *TaskContext) error {
			tc.AddVirtualNS(1e6) // 1ms simulated work per task
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.VirtualElapsed()
	}
	small := makespan(2)
	large := makespan(10)
	if large >= small {
		t.Errorf("10 executors (%v) not faster than 2 executors (%v)", large, small)
	}
}

func TestMemoryPressurePenalty(t *testing.T) {
	cfg := Config{MemoryPerExecutorBytes: mb, spillPenalty: 5}
	c := New(cfg)
	_, err := c.RunStage("pressured", 1, func(tc *TaskContext) error {
		tc.SetWorkingSetBytes(10 * mb)
		tc.AddVirtualNS(1e6)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Metrics().PressureEvents.Load() == 0 {
		t.Error("expected a pressure event")
	}
	pressured := c.VirtualElapsed()

	c2 := New(cfg)
	_, err = c2.RunStage("fits", 1, func(tc *TaskContext) error {
		tc.SetWorkingSetBytes(100)
		tc.AddVirtualNS(1e6)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pressured < 4*c2.VirtualElapsed() {
		t.Errorf("pressure penalty too small: %v vs %v", pressured, c2.VirtualElapsed())
	}
}

// TestByteBudgetCountsPressure: MemoryPerExecutorBytes is the pressure
// threshold at any granularity. Under a 16 KiB budget a task declaring one
// byte more than the budget commits one pressure event and is charged
// spillPenalty times its duration; a task declaring exactly the budget is
// charged nothing extra.
func TestByteBudgetCountsPressure(t *testing.T) {
	const budget = 16 << 10
	run := func(workingSet int64) (*Cluster, time.Duration) {
		c := New(Config{Executors: 1, MemoryPerExecutorBytes: budget})
		if _, err := c.RunStage("budgeted", 1, func(tc *TaskContext) error {
			tc.SetWorkingSetBytes(workingSet)
			tc.AddVirtualNS(100e9)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c, c.VirtualElapsed()
	}
	over, pressured := run(budget + 1)
	fits, plain := run(budget)
	if n := over.Metrics().PressureEvents.Load(); n != 1 {
		t.Errorf("over-budget task committed %d pressure events, want 1", n)
	}
	if n := fits.Metrics().PressureEvents.Load(); n != 0 {
		t.Errorf("in-budget task committed %d pressure events, want 0", n)
	}
	// Real compute adds microseconds to the 100 s virtual charge.
	penalty := over.Config().spillPenalty
	if ratio := float64(pressured) / float64(plain); math.Abs(ratio-penalty) > 0.01 {
		t.Errorf("pressured/plain duration = %.4f, want spillPenalty %.1f", ratio, penalty)
	}
}

func TestPressureTimeoutsCauseRetry(t *testing.T) {
	c := New(Config{MemoryPerExecutorBytes: mb, PressureTimeouts: true, MaxTaskRetries: 3})
	stats, err := c.RunStage("pressured", 2, func(tc *TaskContext) error {
		tc.SetWorkingSetBytes(10 * mb)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failures != 2 {
		t.Errorf("failures = %d, want 2 (one timeout per pressured task)", stats.Failures)
	}
	if stats.Attempts != 4 {
		t.Errorf("attempts = %d, want 4", stats.Attempts)
	}
}

func TestBroadcastAdvancesClock(t *testing.T) {
	c := New(Config{Executors: 10})
	before := c.VirtualElapsed()
	// Torrent-style tree broadcast: 1GB at 1000MB/s per hop, ceil(log2(11))
	// = 4 hops on the critical path = 4s (+latency).
	c.Broadcast(1e9)
	delta := c.VirtualElapsed() - before
	if delta < 4*time.Second || delta > 5*time.Second {
		t.Errorf("broadcast virtual time %v, want ~4s (tree depth 4)", delta)
	}
	// The critical path grows logarithmically, not linearly, with the
	// executor count.
	big := New(Config{Executors: 160})
	big.Broadcast(1e9)
	if d := big.VirtualElapsed(); d > 3*delta {
		t.Errorf("16x executors took %v vs %v; broadcast should scale ~log(E)", d, delta)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := New(Config{})
	cfg := c.Config()
	if cfg.Executors <= 0 || cfg.CoresPerExecutor <= 0 || cfg.MaxTaskRetries <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if c.SlotCount() != cfg.Executors*cfg.CoresPerExecutor {
		t.Errorf("SlotCount = %d", c.SlotCount())
	}
}

func TestResetClock(t *testing.T) {
	c := New(Config{})
	if _, err := c.RunStage("s", 1, func(tc *TaskContext) error {
		tc.AddVirtualNS(5e6)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if c.VirtualElapsed() == 0 {
		t.Fatal("clock did not advance")
	}
	c.ResetClock()
	if c.VirtualElapsed() != 0 {
		t.Error("ResetClock did not zero the clock")
	}
}

func TestMetricsSnapshotAndReset(t *testing.T) {
	c := New(Config{})
	if _, err := c.RunStage("s", 3, func(tc *TaskContext) error {
		tc.AddRecords(10)
		tc.AddComparisons(5)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	snap := c.Metrics().Snapshot()
	if snap.RecordsProcessed != 30 || snap.Comparisons != 15 || snap.StagesRun != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	c.Metrics().Reset()
	if s := c.Metrics().Snapshot(); s.RecordsProcessed != 0 || s.StagesRun != 0 {
		t.Errorf("reset snapshot = %+v", s)
	}
}

// TestDrawHashMatchesFmt pins drawHash to the fmt-formatted FNV-1a digests
// executor placement and every fault draw were defined by, over a grid of
// seed/stage/task/attempt (negative and extreme seeds included), so
// placement, task failures, stragglers and executor kills stay bit-identical
// — and pins that a draw allocates nothing.
func TestDrawHashMatchesFmt(t *testing.T) {
	ref := func(format string, args ...any) uint64 {
		h := fnv.New64a()
		fmt.Fprintf(h, format, args...)
		return h.Sum64()
	}
	for _, seed := range []int64{0, 1, 7, -3, 1 << 40, math.MaxInt64, math.MinInt64} {
		for _, stage := range []int{0, 1, 9, 10, 12345} {
			for _, task := range []int{0, 3, 99, 1000} {
				for _, attempt := range []int{0, 1, 5} {
					s, st, tk, at := seed, int64(stage), int64(task), int64(attempt)
					checks := []struct {
						got, want uint64
						form      string
					}{
						{drawHash("host/", "", s, st, tk), ref("host/%d/%d/%d", seed, stage, task), "host"},
						{drawHash("", "", s, st, tk, at), ref("%d/%d/%d/%d", seed, stage, task, attempt), "failure"},
						{drawHash("", "/spec", s, st, tk, at), ref("%d/%d/%d/%d/spec", seed, stage, task, attempt), "speculative failure"},
						{drawHash("straggler/", "", s, st, tk, at), ref("straggler/%d/%d/%d/%d", seed, stage, task, attempt), "straggler"},
						{drawHash("exec/", "", s, st, at, tk), ref("exec/%d/%d/%d/%d", seed, stage, attempt, task), "executor kill"},
					}
					for _, c := range checks {
						if c.got != c.want {
							t.Fatalf("%s draw seed=%d stage=%d task=%d attempt=%d: %#x, fmt form %#x",
								c.form, seed, stage, task, attempt, c.got, c.want)
						}
					}
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		drawHash("straggler/", "/spec", math.MinInt64, 1<<40, 12345, 5)
	}); n != 0 {
		t.Errorf("drawHash allocates %v times per draw, want 0", n)
	}
}
