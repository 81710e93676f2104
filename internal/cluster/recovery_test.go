package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

// Tests for executor-loss recovery: host-local shuffle invalidation,
// FetchFailed-driven lineage resubmission, the blacklist policy, and typed
// stage aborts. The chaos harness
// (chaos_test.go) exercises the same machinery end to end against the
// sequential oracle; these tests pin the individual mechanisms.

// committedExecutors maps each task of the named stage to the executor its
// committing attempt ran on, read from the trace's task_success events (the
// latest run of the stage wins).
func committedExecutors(c *Cluster, stage string) map[int]int {
	hosts := map[int]int{}
	for _, e := range c.Tracer().Snapshot() {
		if e.Kind == EventTaskSuccess && e.Stage == stage {
			hosts[e.Task] = e.Executor
		}
	}
	return hosts
}

func TestShuffleInvalidateExecutor(t *testing.T) {
	s := newShuffleService(New(Config{}))
	id := s.Register()
	// Map tasks 0,1 hosted on executor 0; map task 2 on executor 1. Reduce
	// partition 0 reads all three, partition 1 only map task 2.
	s.write(id, 0, 0, 0, 0, "a", 1)
	s.write(id, 0, 1, 0, 0, "b", 1)
	s.write(id, 0, 2, 0, 1, "c", 1)
	s.write(id, 1, 2, 0, 1, "d", 1)
	s.MarkDone(id)

	if lost := s.invalidateExecutor(1); lost != 1 {
		t.Fatalf("invalidateExecutor(1) dropped %d map outputs, want 1", lost)
	}
	if got := s.LostMapTasks(id); len(got) != 1 || got[0] != 2 {
		t.Fatalf("LostMapTasks = %v, want [2]", got)
	}
	// Both partitions that read map task 2 must fail, naming the lost map
	// task and its executor; nothing else is lost.
	for _, reduce := range []int{0, 1} {
		_, _, _, ferr, _ := s.fetch(id, reduce)
		if ferr == nil {
			t.Fatalf("fetch(partition %d) succeeded despite lost map output", reduce)
		}
		if len(ferr.MapTasks) != 1 || ferr.MapTasks[0] != 2 || ferr.Executors[0] != 1 {
			t.Errorf("partition %d: FetchFailed = %+v, want map task 2 on executor 1", reduce, ferr)
		}
		if !errors.Is(ferr, ErrFetchFailed) {
			t.Errorf("FetchFailedError does not unwrap to ErrFetchFailed")
		}
	}

	// Recomputing the lost map task (same block keys, new host) repairs
	// every partition.
	s.write(id, 0, 2, 0, 2, "c", 1)
	s.write(id, 1, 2, 1, 2, "d", 1)
	if got := s.LostMapTasks(id); len(got) != 0 {
		t.Fatalf("LostMapTasks after repair = %v, want none", got)
	}
	blocks, _, _, ferr, _ := s.fetch(id, 0)
	if ferr != nil {
		t.Fatalf("fetch after repair: %v", ferr)
	}
	if len(blocks) != 3 {
		t.Fatalf("partition 0 has %d blocks after repair, want 3", len(blocks))
	}
	// Surviving blocks on executor 0 were untouched.
	if blocks[0].(string) != "a" || blocks[1].(string) != "b" || blocks[2].(string) != "c" {
		t.Errorf("repaired partition 0 = %v, want [a b c]", blocks)
	}
}

// TestShuffleEmptyOnlyWhenProven: a reduce partition reads as empty only once
// the map stage is done, with no block committed and none lost. A bucket
// whose blocks died with an executor is not empty until its recomputed
// output commits; an unknown or released shuffle is never empty.
func TestShuffleEmptyOnlyWhenProven(t *testing.T) {
	s := newShuffleService(New(Config{}))
	id := s.Register()
	s.write(id, 0, 0, 0, 0, "a", 1)
	s.write(id, 1, 1, 0, 1, "b", 1)
	if s.Empty(id, 2) {
		t.Fatal("partition 2 empty before the map stage is done")
	}
	s.MarkDone(id)
	for p, want := range []bool{false, false, true} {
		if got := s.Empty(id, p); got != want {
			t.Errorf("Empty(partition %d) = %v, want %v", p, got, want)
		}
	}
	s.invalidateExecutor(1)
	if s.Empty(id, 1) {
		t.Error("partition 1 empty while its only block is lost")
	}
	if !s.Empty(id, 2) {
		t.Error("partition 2 stopped being empty after an unrelated loss")
	}
	s.write(id, 1, 1, 0, 2, "b", 1)
	if s.Empty(id, 1) {
		t.Error("partition 1 empty after its block was recomputed")
	}
	if s.Empty(id+1, 0) {
		t.Error("an unknown shuffle reads as empty")
	}
	s.Unregister(id)
	if s.Empty(id, 2) {
		t.Error("a released shuffle reads as empty")
	}
}

// TestFetchFailedResubmitsOnlyLostPartitions is the recovery end-to-end: kill
// one executor after the map stage, and the reduce stage must detect the
// loss, recompute exactly the map partitions that executor hosted, and
// complete — with the trace and metrics telling the story.
func TestFetchFailedResubmitsOnlyLostPartitions(t *testing.T) {
	c := New(Config{Executors: 4, CoresPerExecutor: 1, Trace: true})
	sh := c.Shuffles().Register()
	const mapTasks = 8
	mapOutput := func(tc *TaskContext, part int) error {
		tc.WriteShuffleAs(sh, part%2, part, []int{part}, 1, 8)
		return nil
	}
	var recomputed []int
	c.Shuffles().SetRecompute(sh, func(lost []int) error {
		recomputed = append(recomputed, lost...)
		_, err := c.RunRecoveryStage("map.recompute", len(lost), func(tc *TaskContext) error {
			return mapOutput(tc, lost[tc.Task()])
		})
		return err
	})
	if _, err := c.RunStage("map", mapTasks, func(tc *TaskContext) error {
		return mapOutput(tc, tc.Task())
	}); err != nil {
		t.Fatal(err)
	}
	c.Shuffles().MarkDone(sh)

	// Kill the executor hosting map task 0; every map task it hosted is lost.
	hosts := committedExecutors(c, "map")
	victim := hosts[0]
	var lostWant []int
	for task := 0; task < mapTasks; task++ {
		if hosts[task] == victim {
			lostWant = append(lostWant, task)
		}
	}
	if !c.FailExecutor(victim) {
		t.Fatalf("FailExecutor(%d) refused", victim)
	}
	if len(c.LiveExecutors()) != 3 {
		t.Fatalf("LiveExecutors = %v after killing %d", c.LiveExecutors(), victim)
	}

	reduceStats, err := c.RunStage("reduce", 2, func(tc *TaskContext) error {
		blocks, ferr := tc.FetchShuffle(sh, tc.Task())
		if ferr != nil {
			return ferr
		}
		if len(blocks) != 4 {
			return fmt.Errorf("partition %d: %d blocks, want 4", tc.Task(), len(blocks))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reduce did not recover: %v", err)
	}
	if reduceStats.Resubmits != 1 {
		t.Errorf("Resubmits = %d, want 1", reduceStats.Resubmits)
	}
	// Both submissions pay the stage term, and every attempt the task term.
	if want := time.Duration(2*stageNS + reduceStats.Attempts*taskNS); reduceStats.SchedulerOverhead != want {
		t.Errorf("scheduler overhead %v over %d attempts, want %v", reduceStats.SchedulerOverhead, reduceStats.Attempts, want)
	}
	if fmt.Sprint(recomputed) != fmt.Sprint(lostWant) {
		t.Errorf("recomputed map tasks %v, want exactly the lost ones %v", recomputed, lostWant)
	}
	m := c.Metrics().Snapshot()
	if m.ExecutorFailures != 1 || m.MapOutputsLost != int64(len(lostWant)) {
		t.Errorf("ExecutorFailures=%d MapOutputsLost=%d, want 1/%d", m.ExecutorFailures, m.MapOutputsLost, len(lostWant))
	}
	if m.RecomputedStages != 1 || m.RecomputedTasks != int64(len(lostWant)) {
		t.Errorf("RecomputedStages=%d RecomputedTasks=%d, want 1/%d", m.RecomputedStages, m.RecomputedTasks, len(lostWant))
	}
	if m.FetchFailures == 0 {
		t.Error("FetchFailures not counted")
	}
	kinds := map[EventKind]int{}
	for _, e := range c.Tracer().Snapshot() {
		kinds[e.Kind]++
	}
	for _, k := range []EventKind{EventExecutorLost, EventFetchFailed, EventStageResubmit} {
		if kinds[k] == 0 {
			t.Errorf("trace missing %q event", k)
		}
	}
}

// TestRecoveryDoesNotRecountWork: patch-up recomputation must not re-add the
// already-committed work counters — the committed totals stay identical to a
// run that never lost an executor.
func TestRecoveryDoesNotRecountWork(t *testing.T) {
	run := func(kill bool) MetricsSnapshot {
		c := New(Config{Executors: 4, CoresPerExecutor: 1, Trace: true})
		sh := c.Shuffles().Register()
		mapOutput := func(tc *TaskContext, part int) error {
			tc.AddRecords(3)
			tc.WriteShuffleAs(sh, 0, part, []int{part}, 2, 16)
			return nil
		}
		c.Shuffles().SetRecompute(sh, func(lost []int) error {
			_, err := c.RunRecoveryStage("map.recompute", len(lost), func(tc *TaskContext) error {
				return mapOutput(tc, lost[tc.Task()])
			})
			return err
		})
		if _, err := c.RunStage("map", 6, func(tc *TaskContext) error {
			return mapOutput(tc, tc.Task())
		}); err != nil {
			t.Fatal(err)
		}
		c.Shuffles().MarkDone(sh)
		if kill {
			if !c.FailExecutor(committedExecutors(c, "map")[0]) {
				t.Fatal("FailExecutor refused")
			}
		}
		if _, err := c.RunStage("reduce", 1, func(tc *TaskContext) error {
			_, ferr := tc.FetchShuffle(sh, 0)
			return ferr
		}); err != nil {
			t.Fatal(err)
		}
		return c.Metrics().Snapshot()
	}
	clean := run(false)
	faulty := run(true)
	if faulty.RecomputedTasks == 0 {
		t.Fatal("kill run recomputed nothing; test is vacuous")
	}
	if clean.RecordsProcessed != faulty.RecordsProcessed ||
		clean.ShuffleRecordsWritten != faulty.ShuffleRecordsWritten ||
		clean.ShuffleBytesWritten != faulty.ShuffleBytesWritten ||
		clean.ShuffleBytesRead != faulty.ShuffleBytesRead {
		t.Errorf("recovery leaked counters:\n clean  %+v\n faulty %+v", clean, faulty)
	}
}

func TestBlacklistBackoffAndReadmission(t *testing.T) {
	c := New(Config{Executors: 3, ExecutorRecoveryStages: 1,
		BlacklistAfterFailures: 2, blacklistBackoffStages: 2, Trace: true})
	noop := func(tc *TaskContext) error { return nil }
	runStages := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.RunStage("tick", 1, noop); err != nil {
				t.Fatal(err)
			}
		}
	}

	// First loss: plain recovery, one stage of downtime.
	if !c.FailExecutor(0) {
		t.Fatal("FailExecutor(0) refused")
	}
	if live := c.LiveExecutors(); len(live) != 2 {
		t.Fatalf("LiveExecutors = %v after first kill", live)
	}
	if c.FailExecutor(0) {
		t.Fatal("killed an executor that is already down")
	}
	runStages(1)
	if live := c.LiveExecutors(); len(live) != 3 {
		t.Fatalf("executor 0 not re-admitted after recovery: %v", live)
	}

	// Second loss crosses BlacklistAfterFailures=2: downtime is
	// recovery (1) + backoff (2<<0) = 3 stage submissions.
	if !c.FailExecutor(0) {
		t.Fatal("second FailExecutor(0) refused")
	}
	if got := c.Metrics().ExecutorsBlacklisted.Load(); got != 1 {
		t.Fatalf("ExecutorsBlacklisted = %d, want 1", got)
	}
	runStages(2)
	if live := c.LiveExecutors(); len(live) != 2 {
		t.Fatalf("blacklisted executor returned early: %v", live)
	}
	runStages(1)
	if live := c.LiveExecutors(); len(live) != 3 {
		t.Fatalf("blacklisted executor not re-admitted after backoff: %v", live)
	}

	// Third loss: backoff doubles to 2<<1 = 4, total downtime 5.
	if !c.FailExecutor(0) {
		t.Fatal("third FailExecutor(0) refused")
	}
	runStages(4)
	if live := c.LiveExecutors(); len(live) != 2 {
		t.Fatalf("backoff did not grow exponentially: %v", live)
	}
	runStages(1)
	if live := c.LiveExecutors(); len(live) != 3 {
		t.Fatalf("executor never re-admitted: %v", live)
	}

	sawBlacklist := false
	for _, e := range c.Tracer().Snapshot() {
		if e.Kind == EventExecutorBlacklisted && e.Executor == 0 {
			sawBlacklist = true
		}
	}
	if !sawBlacklist {
		t.Error("trace missing executor_blacklisted event")
	}
}

func TestFailExecutorNeverKillsLastHost(t *testing.T) {
	c := New(Config{Executors: 2})
	if !c.FailExecutor(0) {
		t.Fatal("first kill refused")
	}
	if c.FailExecutor(1) {
		t.Error("killed the last live executor")
	}
	if c.FailExecutor(7) || c.FailExecutor(-1) {
		t.Error("killed an out-of-range executor")
	}
}

func TestStageAbortMissingRecompute(t *testing.T) {
	c := New(Config{Executors: 4, CoresPerExecutor: 1, Trace: true})
	sh := c.Shuffles().Register()
	if _, err := c.RunStage("map", 4, func(tc *TaskContext) error {
		tc.WriteShuffle(sh, 0, []int{tc.Task()}, 1, 8)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c.Shuffles().MarkDone(sh)
	if !c.FailExecutor(committedExecutors(c, "map")[0]) {
		t.Fatal("FailExecutor refused")
	}
	_, err := c.RunStage("reduce", 1, func(tc *TaskContext) error {
		_, ferr := tc.FetchShuffle(sh, 0)
		return ferr
	})
	if !errors.Is(err, ErrStageAborted) {
		t.Fatalf("err = %v, want ErrStageAborted (no recompute callback)", err)
	}
	if !errors.Is(err, ErrFetchFailed) {
		t.Errorf("abort does not carry the fetch failure: %v", err)
	}
	var abort *StageAbortedError
	if !errors.As(err, &abort) {
		t.Fatalf("err = %T, want *StageAbortedError", err)
	}
	if abort.Stage != "reduce" {
		t.Errorf("abort.Stage = %q", abort.Stage)
	}
}

// TestStageAbortAfterMaxRetries: a recompute callback that never actually
// restores the lost blocks forces the resubmission loop to exhaust
// maxStageRetries and abort with the typed error, deterministically.
func TestStageAbortAfterMaxRetries(t *testing.T) {
	run := func() error {
		c := New(Config{Executors: 4, CoresPerExecutor: 1, Trace: true})
		sh := c.Shuffles().Register()
		c.Shuffles().SetRecompute(sh, func(lost []int) error { return nil }) // lies: repairs nothing
		if _, err := c.RunStage("map", 4, func(tc *TaskContext) error {
			tc.WriteShuffle(sh, 0, []int{tc.Task()}, 1, 8)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		c.Shuffles().MarkDone(sh)
		if !c.FailExecutor(committedExecutors(c, "map")[0]) {
			t.Fatal("FailExecutor refused")
		}
		_, err := c.RunStage("reduce", 1, func(tc *TaskContext) error {
			_, ferr := tc.FetchShuffle(sh, 0)
			return ferr
		})
		return err
	}
	err := run()
	if !errors.Is(err, ErrStageAborted) {
		t.Fatalf("err = %v, want ErrStageAborted", err)
	}
	var abort *StageAbortedError
	if !errors.As(err, &abort) || abort.Resubmits != maxStageRetries {
		t.Fatalf("abort = %+v, want Resubmits=%d (maxStageRetries)", abort, maxStageRetries)
	}
	if again := run(); again == nil || again.Error() != err.Error() {
		t.Errorf("abort not deterministic:\n first: %v\nsecond: %v", err, again)
	}
}

// TestNoTaskPlacedOnMissingHost: under executor kills every task event names
// a real executor. A resubmission runs after the recovery stages that
// repaired its inputs, so it takes its live list at the current stage
// counter; taken at the stage's own, older ID, that list could be empty and
// place tasks on host -1.
func TestNoTaskPlacedOnMissingHost(t *testing.T) {
	for _, rate := range []float64{0.1, 0.2, 0.3} {
		stages, bad := 0, 0
		for seed := int64(1); seed <= 40; seed++ {
			cfg := chaosConfig(seed, 4, 0, rate, false, false, 0)
			cfg.Trace = true
			c := New(cfg)
			_, _, _ = runChaosProgram(c, genChaosProgram(seed*7919))
			badStage := map[int]bool{}
			for _, e := range c.Tracer().Snapshot() {
				if e.Task >= 0 && e.Executor < 0 {
					badStage[e.StageID] = true
				}
			}
			stages += int(c.Metrics().Snapshot().StagesRun)
			bad += len(badStage)
			c.Close()
		}
		if bad > 0 {
			t.Errorf("kill rate %v: %d of %d stages placed a task on executor -1", rate, bad, stages)
		}
	}
}

// TestTraceExecutorFieldSchema is the regression test on the exported JSON
// schema: every event carries an "executor" key — the binding executor for
// task-level events, -1 for stage-level and driver-level events.
func TestTraceExecutorFieldSchema(t *testing.T) {
	c := New(Config{Executors: 4, CoresPerExecutor: 1, Trace: true})
	sh := c.Shuffles().Register()
	mapOutput := func(tc *TaskContext, part int) error {
		tc.WriteShuffleAs(sh, 0, part, []int{part}, 1, 8)
		return nil
	}
	c.Shuffles().SetRecompute(sh, func(lost []int) error {
		_, err := c.RunRecoveryStage("map.recompute", len(lost), func(tc *TaskContext) error {
			return mapOutput(tc, lost[tc.Task()])
		})
		return err
	})
	if _, err := c.RunStage("map", 6, func(tc *TaskContext) error { return mapOutput(tc, tc.Task()) }); err != nil {
		t.Fatal(err)
	}
	c.Shuffles().MarkDone(sh)
	if !c.FailExecutor(committedExecutors(c, "map")[0]) {
		t.Fatal("FailExecutor refused")
	}
	if _, err := c.RunStage("reduce", 1, func(tc *TaskContext) error {
		_, ferr := tc.FetchShuffle(sh, 0)
		return ferr
	}); err != nil {
		t.Fatal(err)
	}
	c.Broadcast(100)

	var buf bytes.Buffer
	if err := c.Tracer().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not parseable: %v", err)
	}
	taskLevel := map[string]bool{
		"task_start": true, "task_success": true, "task_fail_injected": true,
		"fetch_failed": true, "speculative_launch": true, "executor_lost": true,
	}
	stageLevel := map[string]bool{
		"stage_start": true, "stage_end": true, "stage_resubmit": true, "broadcast": true,
	}
	sawTask, sawStage := false, false
	for _, e := range doc.Events {
		raw, ok := e["executor"]
		if !ok {
			t.Fatalf("event %v missing executor field", e)
		}
		exec := int(raw.(float64))
		kind := e["kind"].(string)
		switch {
		case taskLevel[kind]:
			sawTask = true
			if exec < 0 || exec >= 4 {
				t.Errorf("%s event bound to executor %d, want [0,4)", kind, exec)
			}
		case stageLevel[kind]:
			sawStage = true
			if exec != -1 {
				t.Errorf("%s event bound to executor %d, want -1", kind, exec)
			}
		}
	}
	if !sawTask || !sawStage {
		t.Fatalf("schema test saw no task-level (%v) or stage-level (%v) events", sawTask, sawStage)
	}
}

// TestRecoveryProperty (testing/quick, 300+ cases): for random programs and
// kill rates, a run that recovers must be byte-identical to the sequential
// oracle, and the recomputed-task count can never exceed the number of map
// outputs lost (recovery recomputes only lost partitions, never whole
// stages). Runs that exhaust recovery must carry the typed abort.
func TestRecoveryProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short")
	}
	f := func(seedRaw uint16, execSel, killSel uint8) bool {
		seed := int64(seedRaw)%997 + 1
		executors := 2 + int(execSel)%4
		killRate := []float64{0.2, 0.3, 0.5}[int(killSel)%3]
		prog := genChaosProgram(seed * 31)
		want := chaosOracle(prog)
		cfg := chaosConfig(seed, executors, 0, killRate, false, false, 0)
		c := New(cfg)
		state, sums, err := runChaosProgram(c, prog)
		m := c.Metrics().Snapshot()
		if m.RecomputedTasks > m.MapOutputsLost {
			t.Logf("seed=%d exec=%d kill=%v: RecomputedTasks %d > MapOutputsLost %d",
				seed, executors, killRate, m.RecomputedTasks, m.MapOutputsLost)
			return false
		}
		if err != nil {
			if !errors.Is(err, ErrStageAborted) {
				t.Logf("seed=%d exec=%d kill=%v: untyped failure %v", seed, executors, killRate, err)
				return false
			}
			return true
		}
		if len(state) != len(want.finalState) {
			return false
		}
		for i := range state {
			if !int64sEqual(state[i], want.finalState[i]) {
				t.Logf("seed=%d exec=%d kill=%v: partition %d = %v, want %v",
					seed, executors, killRate, i, state[i], want.finalState[i])
				return false
			}
		}
		for i := range sums {
			if sums[i] != want.finalResults[i] {
				return false
			}
		}
		return m.RecordsProcessed == want.records &&
			m.ShuffleRecordsWritten == want.shufRecords &&
			m.ShuffleBytesRead == want.shufRead
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockStoreInvalidateExecutor(t *testing.T) {
	c := New(Config{Executors: 2, MemoryPerExecutorBytes: 64 * mb})
	bs := c.Blocks()
	bs.Put(BlockID{RDD: 1, Partition: 0}, "a", 100, 0, nil)
	bs.Put(BlockID{RDD: 1, Partition: 1}, "b", 100, 1, nil)
	bs.Put(BlockID{RDD: 2, Partition: 0}, "c", 100, ReliableStorage, nil)
	if n := bs.InvalidateExecutor(0); n != 1 {
		t.Fatalf("InvalidateExecutor dropped %d blocks, want 1", n)
	}
	if _, _, ok := bs.Get(BlockID{RDD: 1, Partition: 0}); ok {
		t.Error("block hosted on dead executor still readable")
	}
	if _, _, ok := bs.Get(BlockID{RDD: 1, Partition: 1}); !ok {
		t.Error("surviving executor's block dropped")
	}
	if _, _, ok := bs.Get(BlockID{RDD: 2, Partition: 0}); !ok {
		t.Error("reliable-storage block dropped on executor loss")
	}
}
