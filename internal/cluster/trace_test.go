package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestTracerDisabledRecordsNothing(t *testing.T) {
	c := New(Config{})
	if _, err := c.RunStage("quiet", 4, func(tc *TaskContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := c.Tracer().Len(); n != 0 {
		t.Errorf("disabled tracer retained %d events", n)
	}
}

func TestTraceStageAndTaskEvents(t *testing.T) {
	c := New(Config{Executors: 2, Trace: true, FailureRate: 0.4, MaxTaskRetries: 30, Seed: 11})
	if _, err := c.RunStage("traced", 12, func(tc *TaskContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	events := c.Tracer().Snapshot()
	byKind := map[EventKind]int{}
	for _, e := range events {
		byKind[e.Kind]++
		if e.Kind == EventStageStart || e.Kind == EventStageEnd {
			if e.Stage != "traced" || e.Task != -1 {
				t.Errorf("stage event malformed: %+v", e)
			}
		}
	}
	if byKind[EventStageStart] != 1 || byKind[EventStageEnd] != 1 {
		t.Errorf("stage lifecycle events = %v", byKind)
	}
	if byKind[EventTaskSuccess] != 12 {
		t.Errorf("task_success = %d, want 12", byKind[EventTaskSuccess])
	}
	if byKind[EventTaskFailInjected] == 0 {
		t.Error("expected injected-failure events at rate 0.4")
	}
	if byKind[EventTaskStart] != byKind[EventTaskSuccess]+byKind[EventTaskFailInjected] {
		t.Errorf("task_start %d != success %d + fail %d",
			byKind[EventTaskStart], byKind[EventTaskSuccess], byKind[EventTaskFailInjected])
	}
	// Sequence numbers are strictly increasing, oldest first.
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("events out of order at %d: %d then %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(8)
	tr.Enable()
	for i := 0; i < 20; i++ {
		tr.Emit(Event{Kind: EventTaskStart, Task: i})
	}
	if tr.Len() != 8 {
		t.Errorf("Len = %d, want 8", tr.Len())
	}
	if tr.Dropped() != 12 {
		t.Errorf("Dropped = %d, want 12", tr.Dropped())
	}
	snap := tr.Snapshot()
	if snap[0].Task != 12 || snap[len(snap)-1].Task != 19 {
		t.Errorf("ring kept wrong window: first task %d, last %d", snap[0].Task, snap[len(snap)-1].Task)
	}
}

// TestClusterWithoutTracingHoldsNoEvents pins that a cluster with tracing
// off holds no event storage: the ring is allocated as events arrive, so
// New no longer pays for 65,536 events it will never record.
func TestClusterWithoutTracingHoldsNoEvents(t *testing.T) {
	least := uint64(math.MaxUint64)
	for range 3 { // the least of three, in case another goroutine allocates meanwhile
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := New(Config{})
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if c.Tracer().events != nil {
			t.Fatal("a cluster without tracing holds event storage")
		}
	}
	if least >= 64<<10 {
		t.Errorf("New(Config{}) allocates %d B, want under 64 KiB", least)
	}
}

// TestTracerRingGrowsWithEvents pins the ring's life: it holds only the
// events recorded so far, never more room than twice those (and never more
// than its capacity), and once full it drops the oldest, counts them, and
// still snapshots oldest first.
func TestTracerRingGrowsWithEvents(t *testing.T) {
	const capacity = 200
	tr := NewTracer(capacity)
	tr.Emit(Event{Kind: EventTaskStart}) // disabled: nothing is stored
	if tr.events != nil || tr.Len() != 0 {
		t.Fatal("a disabled tracer stored an event")
	}
	tr.Enable()
	for i := range 3*capacity + 7 {
		tr.Emit(Event{Kind: EventTaskStart, Task: i})
		n := i + 1
		held := min(n, capacity)
		if tr.Len() != held || tr.Dropped() != int64(n-held) {
			t.Fatalf("after %d events: Len %d, Dropped %d; want %d, %d", n, tr.Len(), tr.Dropped(), held, n-held)
		}
		if c := cap(tr.events); c > capacity || c > max(2*held, 64) {
			t.Fatalf("after %d events the ring has room for %d", n, c)
		}
		if n%37 != 0 && n != capacity && n != capacity+1 {
			continue
		}
		snap := tr.Snapshot()
		if len(snap) != held {
			t.Fatalf("after %d events Snapshot holds %d", n, len(snap))
		}
		for j, e := range snap {
			if e.Task != n-held+j {
				t.Fatalf("after %d events Snapshot[%d] is task %d, want %d", n, j, e.Task, n-held+j)
			}
		}
	}
	tr.Reset()
	if tr.events != nil || tr.Len() != 0 || tr.Dropped() != 0 || tr.Snapshot() != nil {
		t.Error("Reset kept events, their storage or the dropped count")
	}
}

func TestTraceWriteJSONParseable(t *testing.T) {
	c := New(Config{Trace: true})
	sh := c.Shuffles().Register()
	if _, err := c.RunStage("map", 3, func(tc *TaskContext) error {
		tc.WriteShuffle(sh, 0, []int{tc.Task()}, 1, 64)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c.Shuffles().MarkDone(sh)
	if _, err := c.RunStage("reduce", 1, func(tc *TaskContext) error {
		tc.FetchShuffle(sh, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c.Broadcast(1000)

	var buf bytes.Buffer
	if err := c.Tracer().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DroppedEvents int64 `json:"droppedEvents"`
		Events        []struct {
			Seq   int64  `json:"seq"`
			Kind  string `json:"kind"`
			Stage string `json:"stage"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export not parseable: %v\n%s", err, buf.String())
	}
	perStage := map[string]int{}
	sawBroadcast := false
	for _, e := range doc.Events {
		if e.Stage != "" {
			perStage[e.Stage]++
		}
		if e.Kind == string(EventBroadcast) {
			sawBroadcast = true
		}
	}
	if perStage["map"] < 1 || perStage["reduce"] < 1 {
		t.Errorf("want >= 1 event per stage, got %v", perStage)
	}
	if !sawBroadcast {
		t.Error("broadcast event missing")
	}
}

func TestTracerResetKeepsSeqMonotone(t *testing.T) {
	tr := NewTracer(4)
	tr.Enable()
	tr.Emit(Event{Kind: EventBroadcast})
	first := tr.Snapshot()[0].Seq
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset kept events")
	}
	tr.Emit(Event{Kind: EventBroadcast})
	if s := tr.Snapshot()[0].Seq; s <= first {
		t.Errorf("seq went backwards after Reset: %d then %d", first, s)
	}
}

func TestMetricsCommitOnSuccessOnly(t *testing.T) {
	// Under heavy fault injection, every failed attempt's counter deltas
	// must be discarded: the committed totals equal the fault-free run's.
	run := func(rate float64) MetricsSnapshot {
		c := New(Config{FailureRate: rate, MaxTaskRetries: 50, Seed: 5})
		sh := c.Shuffles().Register()
		if _, err := c.RunStage("map", 10, func(tc *TaskContext) error {
			tc.AddRecords(7)
			tc.AddComparisons(3)
			tc.WriteShuffle(sh, 0, []int{tc.Task()}, 2, 16)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		c.Shuffles().MarkDone(sh)
		if _, err := c.RunStage("reduce", 2, func(tc *TaskContext) error {
			tc.FetchShuffle(sh, 0)
			tc.AddRecords(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.Metrics().Snapshot()
	}
	clean := run(0)
	faulty := run(0.5)

	if clean.TaskFailures != 0 || faulty.TaskFailures == 0 {
		t.Fatalf("failure setup wrong: clean %d, faulty %d", clean.TaskFailures, faulty.TaskFailures)
	}
	if clean.RecordsProcessed != faulty.RecordsProcessed {
		t.Errorf("RecordsProcessed: clean %d != faulty %d", clean.RecordsProcessed, faulty.RecordsProcessed)
	}
	if clean.Comparisons != faulty.Comparisons {
		t.Errorf("Comparisons: clean %d != faulty %d", clean.Comparisons, faulty.Comparisons)
	}
	if clean.ShuffleRecordsWritten != faulty.ShuffleRecordsWritten {
		t.Errorf("ShuffleRecordsWritten: clean %d != faulty %d",
			clean.ShuffleRecordsWritten, faulty.ShuffleRecordsWritten)
	}
	if clean.ShuffleBytesWritten != faulty.ShuffleBytesWritten {
		t.Errorf("ShuffleBytesWritten: clean %d != faulty %d",
			clean.ShuffleBytesWritten, faulty.ShuffleBytesWritten)
	}
	if clean.ShuffleBytesRead != faulty.ShuffleBytesRead {
		t.Errorf("ShuffleBytesRead: clean %d != faulty %d", clean.ShuffleBytesRead, faulty.ShuffleBytesRead)
	}
	if faulty.TasksLaunched <= clean.TasksLaunched {
		t.Errorf("faulty TasksLaunched %d should exceed clean %d (retries)",
			faulty.TasksLaunched, clean.TasksLaunched)
	}
}

func TestFailedStageStillRecorded(t *testing.T) {
	c := New(Config{FailureRate: 1.0, MaxTaskRetries: 2, Seed: 9, Trace: true})
	_, err := c.RunStage("doomed", 3, func(tc *TaskContext) error { return nil })
	if !errors.Is(err, ErrTaskFailed) {
		t.Fatalf("err = %v, want ErrTaskFailed", err)
	}
	m := c.Metrics().Snapshot()
	if m.StagesRun != 1 {
		t.Errorf("StagesRun = %d, want 1 (failed stages must be counted)", m.StagesRun)
	}
	// 3 tasks x (1 first attempt + 2 retries), all failing.
	if m.TasksLaunched != 9 || m.TaskFailures != 9 {
		t.Errorf("TasksLaunched=%d TaskFailures=%d, want 9/9", m.TasksLaunched, m.TaskFailures)
	}
	h := c.StageHistory()
	if len(h) != 1 || h[0].Name != "doomed" {
		t.Fatalf("failed stage missing from history: %+v", h)
	}
	if h[0].Attempts != 9 || h[0].Failures != 9 {
		t.Errorf("history stats = %+v", h[0])
	}
	// The stage_end trace event carries the failure.
	var end *Event
	for _, e := range c.Tracer().Snapshot() {
		if e.Kind == EventStageEnd {
			ev := e
			end = &ev
		}
	}
	if end == nil || !strings.Contains(end.Detail, "doomed") {
		t.Errorf("stage_end event missing failure detail: %+v", end)
	}
}

func TestRetryBudgetIsFirstAttemptPlusRetries(t *testing.T) {
	var invocations atomic.Int64
	c := New(Config{FailureRate: 1.0, MaxTaskRetries: 3, Seed: 1})
	_, err := c.RunStage("budget", 1, func(tc *TaskContext) error {
		invocations.Add(1)
		return nil
	})
	if !errors.Is(err, ErrTaskFailed) {
		t.Fatalf("err = %v", err)
	}
	if got := invocations.Load(); got != 4 {
		t.Errorf("invocations = %d, want 4 (1 first attempt + 3 retries)", got)
	}
}

func TestGenuineErrorsRetriedLikeInjectedOnes(t *testing.T) {
	// A transient genuine error must be retried within the same budget.
	boom := errors.New("transient")
	c := New(Config{MaxTaskRetries: 3})
	stats, err := c.RunStage("flaky-code", 1, func(tc *TaskContext) error {
		if tc.Attempt() < 2 {
			return boom
		}
		tc.AddRecords(5)
		return nil
	})
	if err != nil {
		t.Fatalf("transient error not retried to success: %v", err)
	}
	if stats.Attempts != 3 || stats.Failures != 2 {
		t.Errorf("stats = %+v, want 3 attempts / 2 failures", stats)
	}
	// Counters from the failed attempts must not have leaked.
	if got := c.Metrics().RecordsProcessed.Load(); got != 5 {
		t.Errorf("RecordsProcessed = %d, want 5", got)
	}

	// A permanent genuine error exhausts the budget and surfaces both
	// ErrTaskFailed and the underlying cause.
	c2 := New(Config{MaxTaskRetries: 1})
	_, err = c2.RunStage("doomed-code", 1, func(tc *TaskContext) error { return boom })
	if !errors.Is(err, ErrTaskFailed) || !errors.Is(err, boom) {
		t.Errorf("err = %v, want both ErrTaskFailed and the cause", err)
	}
}

func TestStageStatsTaskBreakdown(t *testing.T) {
	c := New(Config{Executors: 2, CoresPerExecutor: 1, networkMBps: 1, ShuffleLatencyMS: 5, Trace: true})
	sh := c.Shuffles().Register()
	if _, err := c.RunStage("map", 4, func(tc *TaskContext) error {
		tc.WriteShuffle(sh, 0, []byte{1}, 1, 1e6)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c.Shuffles().MarkDone(sh)
	stats, err := c.RunStage("reduce", 4, func(tc *TaskContext) error {
		if tc.Task() == 0 {
			tc.FetchShuffle(sh, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tasks != 4 || stats.Attempts != 4 {
		t.Fatalf("stats = %+v, want 4 tasks in 4 attempts", stats)
	}
	// Only task 0 fetched: 4MB at 1MB/s = 4s of shuffle wait.
	if stats.ShuffleWaitDuration < 4*time.Second {
		t.Errorf("stage shuffle wait %v, want >= 4s", stats.ShuffleWaitDuration)
	}
	if stats.SchedulerOverhead <= 0 && c.cfg.SchedulerOverheadMS > 0 {
		t.Error("scheduler overhead missing")
	}
	// The per-task view is the trace: the fetching task's virtual time
	// includes the whole stage's shuffle wait, and no other task's does.
	committed := 0
	for _, e := range c.Tracer().Snapshot() {
		if e.Kind != EventTaskSuccess || e.Stage != "reduce" {
			continue
		}
		committed++
		charged := time.Duration(e.VirtualNS) >= stats.ShuffleWaitDuration
		if charged != (e.Task == 0) {
			t.Errorf("task %d virtual %v against stage shuffle wait %v",
				e.Task, time.Duration(e.VirtualNS), stats.ShuffleWaitDuration)
		}
	}
	if committed != 4 {
		t.Errorf("trace holds %d reduce commits, want 4", committed)
	}
}

func TestWriteStageSummary(t *testing.T) {
	c := New(Config{Executors: 2, SchedulerOverheadMS: 1})
	if _, err := c.RunStage("alpha", 2, func(tc *TaskContext) error {
		tc.AddVirtualNS(1e6)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteStageSummary(&buf, c.StageHistory())
	out := buf.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "TOTAL") {
		t.Errorf("summary missing rows:\n%s", out)
	}
}

func TestListScheduleSlotsLPTMapping(t *testing.T) {
	c := New(Config{Executors: 2, CoresPerExecutor: 1, Scheduling: ScheduleLPT})
	tasks := []virtualTask{{primaryNS: 10}, {primaryNS: 100}, {primaryNS: 10}, {primaryNS: 10}}
	if makespan := c.virtualSchedule(tasks, c.SlotCount()); makespan != 100 {
		t.Errorf("makespan = %v, want 100 (LPT isolates the straggler)", makespan)
	}
	// The long task starts at once and runs alone on its slot; the three
	// short ones run back to back on the other, in submission order.
	for i, want := range []float64{0, 0, 10, 20} {
		if got := tasks[i].startNS; got != want {
			t.Errorf("task %d starts at %v, want %v", i, got, want)
		}
	}
	for i, p := range tasks {
		if p.primaryChargedNS != p.primaryNS {
			t.Errorf("task %d charged %v, want its duration %v", i, p.primaryChargedNS, p.primaryNS)
		}
	}
}
