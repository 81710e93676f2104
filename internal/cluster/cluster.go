// Package cluster simulates a Spark-style compute cluster on a single
// machine. It is the execution substrate underneath the RDD layer
// (internal/rdd): it runs stages of tasks on a bounded worker pool, injects
// and recovers from task failures, caches materialized partitions in a
// memory-bounded block store, moves shuffle data between stages, and keeps a
// *virtual clock* so that executor-scaling experiments (paper Figs. 8-10)
// reproduce cluster behaviour independently of the host's core count.
//
// # Virtual time
//
// Every task measures its real single-threaded compute time and may add
// virtual time for simulated I/O (shuffle reads, broadcasts). After a stage's
// tasks have all really executed (in parallel, up to the host's cores), the
// scheduler *list-schedules* the per-task virtual durations onto the live
// executors' CoresPerExecutor slots each, in one discrete-event loop
// (virtualSchedule). The stage's virtual makespan is the last finish time.
// Summed across stages this yields the execution times reported by the
// experiment harness: a 5-executor configuration and a 25-executor
// configuration run the same real computation, but their virtual makespans
// differ exactly as the paper's cluster wall-clock would.
//
// # Fault tolerance
//
// Each task attempt may be failed by the injector with probability
// Config.FailureRate (deterministic per seed/stage/task/attempt). Failed
// attempts discard their buffered shuffle output — like Spark, output commits
// only on success — and are retried up to MaxTaskRetries times, charging the
// wasted attempt's virtual time to the slot that ran it. Tasks whose declared
// working set exceeds executor memory suffer a spill penalty and, when
// PressureTimeouts is set, a simulated timeout failure on their first attempt
// (reproducing the paper's observation for cluster numbers below 25).
//
// # Memory
//
// One figure, Config.MemoryPerExecutorBytes, is an executor's memory. The
// pressure check above compares a task's declared working set with it; the
// block cache holds Executors times it; and with SpillToDisk set, shuffle
// buffers past it and the RDD layer's over-budget join build sides go
// through the spill tier (spill.go), charging virtual disk time.
//
// # Speculative execution
//
// With Config.Speculation set, each stage runs a straggler monitor: once
// SpeculationQuantile of its tasks have committed, any task running longer
// than SpeculationMultiplier x the median committed duration gets one
// speculative duplicate attempt chain. The rival chains race; the first
// successful attempt wins the task's single commit and cancels the other via
// its attempt context. Virtual-clock accounting replays the race in the
// same discrete-event loop (see virtualSchedule), where duplicate copies
// only ever occupy otherwise-idle slots, so the speculative makespan never
// exceeds the no-speculation list-schedule bound. The StragglerRate injector
// creates deterministic slow tasks (virtual cost plus a real, cancellable
// delay) to exercise the machinery, mirroring how FailureRate exercises
// retries.
//
// # Real execution
//
// Every stage's real computation runs on one launcher, a goroutine-per-core
// pool (pool.go): RealWorkers workers claim the stage's tasks in ascending
// order from one shared atomic cursor, each with its own scratch buffers
// (WorkerScratch) handed to tasks through TaskContext.Scratch. A task that
// blocks in a simulated delay yields its token and a spare worker runs the
// same loop in its place, so RealWorkers tokens bound the chains computing
// at once. The pool decides only how fast the real computation saturates
// the host; the virtual clock above is a post-hoc cost model over the
// committed task durations. Because all side effects are commit-gated and
// injection is hashed from stable identities, results and committed
// counters do not depend on the pool size or on which worker runs a task.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// Config describes the simulated cluster.
type Config struct {
	// Executors is the number of executor processes (paper: Spark executors).
	Executors int
	// CoresPerExecutor is the number of concurrent task slots per executor.
	CoresPerExecutor int
	// MemoryPerExecutorBytes is one executor's memory budget, the single
	// figure every memory decision reads: the block cache holds
	// Executors x MemoryPerExecutorBytes, an executor's resident shuffle
	// buffers spill past it (SpillToDisk), Join chunks a build side larger
	// than it through the spill tier, and a task whose declared working set
	// exceeds it is under pressure (spillPenalty, PressureTimeouts).
	// 0 selects the default 1 GiB.
	MemoryPerExecutorBytes int64
	// SpillToDisk enables the disk overflow tier: blocks that exceed an
	// executor's memory budget (cached partitions in the block store,
	// committed shuffle buffers) are framed, compressed, and spilled to
	// executor-local disk instead of being dropped, and read back
	// transparently, charging virtual disk time at spillMBps. Off by
	// default: without it the engine keeps its historical
	// evict-and-recompute behaviour.
	SpillToDisk bool
	// networkMBps is the simulated per-executor network bandwidth used to
	// charge virtual time for shuffle reads and broadcasts. 0 selects the
	// default 1000.
	networkMBps float64
	// ShuffleLatencyMS is the fixed virtual latency charged per fetched
	// shuffle block.
	ShuffleLatencyMS float64
	// SchedulerOverheadMS is the fixed virtual cost charged per stage, plus
	// a per-executor coordination share (task dispatch, result pickup).
	SchedulerOverheadMS float64
	// FailureRate is the probability that any given task attempt fails.
	FailureRate float64
	// ExecutorFailureRate is the probability, drawn deterministically per
	// (seed, stage submission, executor), that a live executor is killed
	// when a stage is submitted. A killed executor's slots drain and its
	// committed shuffle map outputs and cached partitions are dropped;
	// downstream fetches of the lost outputs fail with FetchFailedError
	// and trigger lineage resubmission. The last live executor is never
	// killed.
	ExecutorFailureRate float64
	// MaxStageRetries bounds how many times one stage may be resubmitted
	// after fetch failures before it aborts with a *StageAbortedError.
	// 0 selects the default 4.
	MaxStageRetries int
	// ExecutorRecoveryStages is how many stage submissions a killed
	// executor stays out of the pool before a replacement rejoins
	// (pre-blacklist). 0 selects the default 1.
	ExecutorRecoveryStages int
	// BlacklistAfterFailures is the lifetime failure count at which an
	// executor is blacklisted: beyond plain recovery, each further loss
	// serves an exponentially growing backoff before re-admission.
	// 0 selects the default 3.
	BlacklistAfterFailures int
	// blacklistBackoffStages is the base backoff, in stage submissions,
	// of a freshly blacklisted executor; it doubles per additional
	// failure. 0 selects the default 4.
	blacklistBackoffStages int
	// MaxTaskRetries bounds the retries after a task's first attempt: a
	// task runs at most 1+MaxTaskRetries attempts before the stage fails
	// with ErrTaskFailed. Injected failures, pressure timeouts, and
	// genuine task errors all consume the same retry budget, as in Spark.
	MaxTaskRetries int
	// spillPenalty multiplies a task's virtual duration when its working
	// set exceeds executor memory (simulated spill/GC thrash).
	spillPenalty float64
	// PressureTimeouts injects a timeout failure on the first attempt of
	// any task under memory pressure, as the paper reports for small
	// cluster numbers.
	PressureTimeouts bool
	// Seed drives all stochastic behaviour (fault and straggler injection).
	Seed int64
	// RealParallel is inert: the engine never reads it. The task pool
	// (pool.go) is the only task launcher, so there is no mode left to
	// select. The field survives only because the frozen bench module's
	// bench/trace.go assigns it (its one assigner); the next [benchmark] PR
	// deletes that assignment and this field together.
	RealParallel bool
	// RealWorkers is the number of stage tasks that compute at once: the
	// pool (pool.go) starts this many workers per stage and, while a task
	// sleeps in a simulated delay, lends its token to a spare worker. 0
	// selects runtime.NumCPU() — one per core.
	RealWorkers int
	// Scheduling selects the task-to-slot placement policy. The paper
	// names executor load balancing as future work (§7); LPT implements
	// it.
	Scheduling SchedulePolicy

	// Speculation enables straggler mitigation: stages monitor running
	// tasks and launch speculative duplicate attempts for stragglers;
	// the first completion wins the task's commit.
	Speculation bool
	// SpeculationQuantile is the fraction of a stage's tasks that must
	// commit before stragglers are considered (Spark:
	// spark.speculation.quantile). 0 selects the default 0.75.
	SpeculationQuantile float64
	// SpeculationMultiplier: a running task is a straggler when its
	// elapsed time exceeds this multiple of the median committed task
	// duration (Spark: spark.speculation.multiplier). 0 selects the
	// default 1.5.
	SpeculationMultiplier float64
	// speculationInterval is the real-time period of the straggler
	// monitor's checks. 0 selects the default 250µs.
	speculationInterval time.Duration
	// SpeculationMinRuntimeMS is a real-time floor under the straggler
	// threshold, keeping speculation from duplicating sub-millisecond
	// tasks on noisy medians. 0 selects the default 1ms; negative
	// disables the floor.
	SpeculationMinRuntimeMS float64

	// StragglerRate is the probability that any given task attempt is an
	// injected straggler (deterministic per seed/stage/task/attempt, like
	// FailureRate).
	StragglerRate float64
	// StragglerVirtualMS is the virtual time an injected straggler charges
	// up front, representing the slowdown's would-be cost. 0 selects the
	// default 250ms.
	StragglerVirtualMS float64
	// StragglerRealDelayMS is the real, cancellable wall-clock delay an
	// injected straggler blocks for, giving the monitor a window to race
	// a speculative copy. 0 selects the default 5ms; negative disables
	// the real delay (the virtual charge still applies).
	StragglerRealDelayMS float64

	// Trace enables the structured stage/task event log (see Tracer).
	// Disabled tracing costs one atomic load per would-be event.
	Trace bool
	// traceCapacity bounds the trace event ring; 0 selects the default
	// (65536 events). When the ring wraps, the oldest events are dropped
	// and counted.
	traceCapacity int
}

// SchedulePolicy is the task placement policy of the virtual scheduler.
type SchedulePolicy int

const (
	// ScheduleFIFO assigns tasks to the earliest-available slot in
	// submission order — Spark's default behaviour and the paper's
	// baseline.
	ScheduleFIFO SchedulePolicy = iota
	// ScheduleLPT sorts tasks longest-first before placement (longest
	// processing time). With skewed task durations — e.g. uneven Voronoi
	// cluster sizes, which the paper identifies as its scalability
	// limiter — LPT produces tighter makespans.
	ScheduleLPT
)

func (p SchedulePolicy) String() string {
	if p == ScheduleLPT {
		return "lpt"
	}
	return "fifo"
}

// Defaults fills unset fields with production-like values.
func (c Config) withDefaults() Config {
	if c.Executors <= 0 {
		c.Executors = 4
	}
	if c.CoresPerExecutor <= 0 {
		c.CoresPerExecutor = 1
	}
	if c.MemoryPerExecutorBytes <= 0 {
		c.MemoryPerExecutorBytes = 1 << 30
	}
	if c.networkMBps <= 0 {
		c.networkMBps = 1000
	}
	if c.ShuffleLatencyMS < 0 {
		c.ShuffleLatencyMS = 0
	}
	if c.MaxTaskRetries <= 0 {
		c.MaxTaskRetries = 4
	}
	if c.MaxStageRetries <= 0 {
		c.MaxStageRetries = 4
	}
	if c.ExecutorRecoveryStages <= 0 {
		c.ExecutorRecoveryStages = 1
	}
	if c.BlacklistAfterFailures <= 0 {
		c.BlacklistAfterFailures = 3
	}
	if c.blacklistBackoffStages <= 0 {
		c.blacklistBackoffStages = 4
	}
	if c.spillPenalty < 1 {
		c.spillPenalty = 3
	}
	if c.RealWorkers <= 0 {
		c.RealWorkers = runtime.NumCPU()
	}
	if c.SpeculationQuantile <= 0 {
		c.SpeculationQuantile = 0.75
	}
	if c.SpeculationQuantile > 1 {
		c.SpeculationQuantile = 1
	}
	if c.SpeculationMultiplier <= 0 {
		c.SpeculationMultiplier = 1.5
	}
	if c.speculationInterval <= 0 {
		c.speculationInterval = 250 * time.Microsecond
	}
	if c.SpeculationMinRuntimeMS == 0 {
		c.SpeculationMinRuntimeMS = 1
	} else if c.SpeculationMinRuntimeMS < 0 {
		c.SpeculationMinRuntimeMS = 0
	}
	if c.StragglerVirtualMS == 0 {
		c.StragglerVirtualMS = 250
	} else if c.StragglerVirtualMS < 0 {
		c.StragglerVirtualMS = 0
	}
	if c.StragglerRealDelayMS == 0 {
		c.StragglerRealDelayMS = 5
	} else if c.StragglerRealDelayMS < 0 {
		c.StragglerRealDelayMS = 0
	}
	return c
}

// Cluster is a simulated Spark cluster. All methods are safe for concurrent
// use by tasks of a running job; jobs themselves are submitted sequentially.
type Cluster struct {
	cfg Config

	mu           sync.Mutex
	virtualNS    float64
	stageCounter int
	execs        []executorMeta

	blocks   *BlockStore
	shuffles *ShuffleService
	spill    *SpillStore
	metrics  *Metrics
	history  stageHistory
	tracer   *Tracer

	// poolCtx parents every attempt context; Close cancels it, waking any
	// chain blocked in a simulated real delay (straggler sleeps) so no
	// goroutine outlives the cluster.
	poolCtx    context.Context
	poolCancel context.CancelFunc
	// scratch recycles per-worker buffer bundles across stages.
	scratch scratchPool
}

// New creates a cluster with the given configuration.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg}
	c.execs = make([]executorMeta, cfg.Executors)
	c.spill = newSpillStore(c)
	c.blocks = newBlockStore(int64(cfg.Executors)*cfg.MemoryPerExecutorBytes, c)
	c.shuffles = newShuffleService(c)
	c.metrics = &Metrics{}
	c.tracer = NewTracer(cfg.traceCapacity)
	if cfg.Trace {
		c.tracer.Enable()
	}
	c.poolCtx, c.poolCancel = context.WithCancel(context.Background())
	return c
}

// Close releases the cluster's disk-backed resources (spilled block files)
// and cancels the shared pool context, waking any task chain still blocked
// in a simulated real delay. Stages still running when Close is called fail
// fast; the normal pattern is to Close only after the last job returns.
// A cluster that never spilled holds no disk state, so Close is cheap.
func (c *Cluster) Close() {
	c.poolCancel()
	c.spill.Close()
}

// Config returns the (defaulted) configuration the cluster runs with.
func (c *Cluster) Config() Config { return c.cfg }

// Metrics returns the cluster's metrics registry.
func (c *Cluster) Metrics() *Metrics { return c.metrics }

// Blocks returns the cluster's block store (partition cache).
func (c *Cluster) Blocks() *BlockStore { return c.blocks }

// VirtualElapsed returns the total virtual wall-clock accumulated across all
// stages run so far.
func (c *Cluster) VirtualElapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.virtualNS)
}

// ResetClock zeroes the virtual clock (metrics and caches are kept).
func (c *Cluster) ResetClock() {
	c.mu.Lock()
	c.virtualNS = 0
	c.mu.Unlock()
}

// StageStats reports one stage's execution, including the virtual-time
// breakdown. The per-task view is the trace: each attempt's task event
// carries its executor, virtual time, speculative flag and outcome. Stages
// that fail (a task exhausted its retries) are still fully accounted: their
// stats are recorded in the metrics registry and stage history before
// RunStage returns the error.
type StageStats struct {
	Name     string
	Tasks    int
	Attempts int
	Failures int
	// VirtualDuration is the stage's virtual makespan (scheduled onto the
	// live executors' slots) plus scheduler overhead.
	VirtualDuration time.Duration
	// ComputeDuration sums the tasks' measured single-threaded compute
	// time across all attempts (before virtual scheduling).
	ComputeDuration time.Duration
	// ShuffleWaitDuration sums the tasks' simulated shuffle-fetch waits
	// across all attempts.
	ShuffleWaitDuration time.Duration
	// SchedulerOverhead is the fixed per-stage coordination cost included
	// in VirtualDuration.
	SchedulerOverhead time.Duration
	RealDuration      time.Duration
	// SpeculativeTasks counts tasks for which the straggler monitor
	// launched a speculative duplicate chain.
	SpeculativeTasks int
	// SpeculativeWins counts tasks whose speculative chain won the real
	// commit race.
	SpeculativeWins int
	// WastedDuration is the virtual time charged to losing copies of
	// speculated tasks (the cost of mitigation), summed over the stage.
	WastedDuration time.Duration
	// Stragglers counts injected straggler attempts across the stage.
	Stragglers int
	// Resubmits counts lineage-recovery resubmissions of the stage after
	// shuffle fetch failures (0 for a clean run).
	Resubmits int
}

// ErrTaskFailed is returned when a task exhausts its retry budget.
var ErrTaskFailed = errors.New("cluster: task failed after max retries")

// ErrStageAborted is the sentinel under every *StageAbortedError, so callers
// can errors.Is a stage failure to detect exhausted (or impossible) lineage
// recovery.
var ErrStageAborted = errors.New("cluster: stage aborted: lineage recovery exhausted")

// StageAbortedError reports that a stage could not be completed by lineage
// resubmission: either MaxStageRetries resubmissions were already spent, or
// a lost shuffle had no registered recompute callback. Cause carries the
// terminal fetch failure (or patch-up error).
type StageAbortedError struct {
	Stage     string
	StageID   int
	Resubmits int
	Cause     error
}

func (e *StageAbortedError) Error() string {
	return fmt.Sprintf("stage %q (id %d) aborted after %d resubmissions: %v",
		e.Stage, e.StageID, e.Resubmits, e.Cause)
}

func (e *StageAbortedError) Unwrap() []error { return []error{ErrStageAborted, e.Cause} }

// RunStage executes numTasks tasks, each invoking run with a fresh
// TaskContext. Tasks run really in parallel on the task pool
// (RealWorkers at once) and their virtual durations are list-scheduled onto
// the configured executor slots to advance the cluster's virtual clock.
func (c *Cluster) RunStage(name string, numTasks int, run func(tc *TaskContext) error) (StageStats, error) {
	_, stats, err := c.runStage(name, numTasks, run, false, false)
	return stats, err
}

// RunRecoveryStage runs a patch-up stage that regenerates output lost with a
// failed executor (the recompute callbacks registered via
// ShuffleService.SetRecompute use it). Its tasks' commit-gated side effects
// land normally — the lost blocks must come back — but their work-counter
// deltas are not re-added to the metrics registry: the output was already
// counted when it first committed, and recovery cost is accounted
// separately through RecomputedTasks/RecomputedStages and virtual time.
func (c *Cluster) RunRecoveryStage(name string, numTasks int, run func(tc *TaskContext) error) (StageStats, error) {
	_, stats, err := c.runStage(name, numTasks, run, false, true)
	return stats, err
}

// RunStageResults is RunStage for stages whose tasks produce a value: each
// task publishes via TaskContext.PublishResult, and the returned slice holds
// the committed (winning-attempt) value per task. With speculation enabled,
// rival attempts of a task may run concurrently; collecting results through
// the commit gate keeps exactly one writer per task.
func (c *Cluster) RunStageResults(name string, numTasks int, run func(tc *TaskContext) error) ([]any, StageStats, error) {
	return c.runStage(name, numTasks, run, true, false)
}

func (c *Cluster) runStage(name string, numTasks int, run func(tc *TaskContext) error, collect, recovery bool) ([]any, StageStats, error) {
	c.mu.Lock()
	c.stageCounter++
	stageID := c.stageCounter
	c.mu.Unlock()
	c.tracer.Emit(Event{Kind: EventStageStart, Stage: name, StageID: stageID, Task: -1, Attempt: -1, Executor: -1})

	start := time.Now()
	sr := c.newStageRun(stageID, name, numTasks, run, collect, recovery)

	// The stage loop: each submission point first draws the deterministic
	// executor-kill decisions, then runs every not-yet-committed task on
	// the surviving executors. Attempts that die on a FetchFailedError
	// (their shuffle read touched map outputs lost with an executor) do
	// not fail the stage; instead the lost map partitions are recomputed
	// from lineage via the shuffle's recompute callback and the stage is
	// resubmitted, up to MaxStageRetries times before aborting with a
	// typed *StageAbortedError.
	var abortErr error
	resubmits := 0
	for {
		sr.live = c.injectExecutorFailures(stageID, resubmits)
		sr.executeAttempt()
		failed := sr.fetchFailures()
		if len(failed) == 0 {
			break
		}
		if resubmits >= c.cfg.MaxStageRetries {
			abortErr = &StageAbortedError{Stage: name, StageID: stageID,
				Resubmits: resubmits, Cause: failed[0]}
			break
		}
		resubmits++
		if err := c.repairShuffles(name, stageID, resubmits, failed); err != nil {
			abortErr = err
			break
		}
		sr.resetForResubmit()
	}

	stats := StageStats{
		Name:         name,
		Tasks:        numTasks,
		RealDuration: time.Since(start),
		Resubmits:    resubmits,
	}
	tasks := make([]virtualTask, numTasks)
	var firstErr error
	for i := range sr.states {
		st := &sr.states[i]
		tasks[i] = virtualTask{
			primaryNS:  st.primary.virtualNS,
			specNS:     st.spec.virtualNS,
			hasSpec:    st.spec.ran && st.spec.attempts > 0,
			specCanWin: st.spec.succeeded,
		}
		if st.specLaunched {
			stats.SpeculativeTasks++
		}
		if st.specWinner {
			stats.SpeculativeWins++
		}
		stats.Attempts += st.primary.attempts + st.spec.attempts
		stats.Failures += st.primary.failures + st.spec.failures
		stats.ComputeDuration += time.Duration(st.primary.computeNS + st.spec.computeNS)
		stats.ShuffleWaitDuration += time.Duration(st.primary.shuffleWaitNS + st.spec.shuffleWaitNS)
		stats.Stragglers += st.primary.stragglers + st.spec.stragglers
		if !st.committed && firstErr == nil {
			err := st.primary.err
			if err == nil {
				err = ErrTaskFailed
			}
			firstErr = fmt.Errorf("stage %q task %d: %w", name, i, err)
		}
	}
	if abortErr != nil {
		// Exhausted lineage recovery outranks the per-task fetch errors
		// the final attempt left behind.
		firstErr = abortErr
	}

	// The virtual schedule places tasks onto the slots of the executors
	// that survived to the stage's final attempt: losing hosts shrinks the
	// stage's effective parallelism.
	liveSlots := len(sr.live) * c.cfg.CoresPerExecutor
	if liveSlots < 1 {
		liveSlots = c.SlotCount()
	}
	makespanNS := c.virtualSchedule(tasks, liveSlots)
	for i := range tasks {
		stats.WastedDuration += time.Duration(tasks[i].wastedNS())
	}

	overheadNS := c.cfg.SchedulerOverheadMS * 1e6 * (1 + 0.05*float64(c.cfg.Executors))
	stats.VirtualDuration = time.Duration(makespanNS + overheadNS)
	stats.SchedulerOverhead = time.Duration(overheadNS)

	c.mu.Lock()
	c.virtualNS += makespanNS + overheadNS
	c.mu.Unlock()

	// Failed stages are accounted like successful ones: their attempts,
	// failures, and virtual time happened and must not vanish from the
	// metrics or the stage history.
	c.metrics.StagesRun.Add(1)
	c.metrics.TasksLaunched.Add(int64(stats.Attempts))
	c.metrics.TaskFailures.Add(int64(stats.Failures))
	c.metrics.SpeculativeWins.Add(int64(stats.SpeculativeWins))
	c.metrics.SpeculativeWastedNS.Add(int64(stats.WastedDuration))
	c.history.add(stats)
	if c.tracer.Enabled() {
		e := Event{Kind: EventStageEnd, Stage: name, StageID: stageID,
			Task: -1, Attempt: -1, Executor: -1, VirtualNS: makespanNS + overheadNS}
		if firstErr != nil {
			e.Detail = firstErr.Error()
		}
		c.tracer.Emit(e)
	}
	return sr.results, stats, firstErr
}

// repairShuffles handles one round of fetch failures: for every shuffle the
// failed stage attempt could not read, it recomputes exactly the lost map
// partitions through the recompute callback the producing layer registered,
// then the caller resubmits the stage. A shuffle without a callback is
// unrecoverable and aborts the stage with a typed error.
func (c *Cluster) repairShuffles(name string, stageID, resubmit int, failures []*FetchFailedError) error {
	// One repair per shuffle even if many reduce tasks tripped on it.
	seen := make(map[int]bool)
	for _, ff := range failures {
		if seen[ff.ShuffleID] {
			continue
		}
		seen[ff.ShuffleID] = true
		lost := c.shuffles.LostMapTasks(ff.ShuffleID)
		if len(lost) == 0 {
			continue // repaired already (shared parent fixed in an inner stage)
		}
		rec := c.shuffles.recomputeFor(ff.ShuffleID)
		if rec == nil {
			return &StageAbortedError{Stage: name, StageID: stageID, Resubmits: resubmit - 1,
				Cause: fmt.Errorf("shuffle %d has no recompute callback: %w", ff.ShuffleID, ff)}
		}
		if c.tracer.Enabled() {
			c.tracer.Emit(Event{Kind: EventStageResubmit, Stage: name, StageID: stageID,
				Task: -1, Attempt: -1, Executor: -1,
				Detail: fmt.Sprintf("resubmit %d: recomputing %d lost map outputs of shuffle %d",
					resubmit, len(lost), ff.ShuffleID)})
		}
		c.metrics.RecomputedStages.Add(1)
		if err := rec(lost); err != nil {
			return &StageAbortedError{Stage: name, StageID: stageID, Resubmits: resubmit - 1,
				Cause: fmt.Errorf("recomputing shuffle %d map outputs %v: %w", ff.ShuffleID, lost, err)}
		}
		c.metrics.RecomputedTasks.Add(int64(len(lost)))
	}
	return nil
}

// injectFailure decides deterministically whether the given attempt fails.
// Speculative attempts draw from a salted stream so enabling speculation
// never perturbs the primary chains' failure pattern for a given seed.
func (c *Cluster) injectFailure(stageID, task, attempt int, speculative bool) bool {
	if c.cfg.FailureRate <= 0 {
		return false
	}
	suffix := ""
	if speculative {
		suffix = "/spec"
	}
	h := drawHash("", suffix, c.cfg.Seed, int64(stageID), int64(task), int64(attempt))
	rng := rand.New(rand.NewSource(int64(h)))
	return rng.Float64() < c.cfg.FailureRate
}

// injectStraggler decides deterministically whether the given attempt is an
// injected straggler. The stream is independent of injectFailure's.
// Speculative attempts are never stragglers: the injected pathology models a
// slow or contended executor, and a speculative copy is by construction
// relaunched on a different, healthy one — that asymmetry is the reason
// speculation works at all.
func (c *Cluster) injectStraggler(stageID, task, attempt int, speculative bool) bool {
	if c.cfg.StragglerRate <= 0 || speculative {
		return false
	}
	h := drawHash("straggler/", "", c.cfg.Seed, int64(stageID), int64(task), int64(attempt))
	rng := rand.New(rand.NewSource(int64(h)))
	return rng.Float64() < c.cfg.StragglerRate
}

// drawHash is the 64-bit FNV-1a digest of prefix, the decimal vals joined by
// "/", and suffix — the bytes fmt.Fprintf(fnv.New64a(), prefix+"%d/%d"+suffix,
// vals...) writes, which keeps placement and every fault draw bit-identical
// to that form (TestDrawHashMatchesFmt). It renders into a stack buffer with
// strconv, so the draw every task makes allocates nothing.
func drawHash(prefix, suffix string, vals ...int64) uint64 {
	var buf [128]byte
	b := append(buf[:0], prefix...)
	for i, v := range vals {
		if i > 0 {
			b = append(b, '/')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	b = append(b, suffix...)
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211 // FNV-1a 64 prime
	}
	return h
}

// Broadcast charges the virtual cost of distributing bytes to every
// executor. Like Spark's torrent broadcast, distribution is tree-shaped:
// executors that already hold the data re-serve it, so the critical path is
// logarithmic in the executor count rather than linear.
func (c *Cluster) Broadcast(bytes int64) {
	perHop := float64(bytes)/(c.cfg.networkMBps*1e6)*1e9 + c.cfg.ShuffleLatencyMS*1e6
	depth := math.Ceil(math.Log2(float64(c.cfg.Executors) + 1))
	c.mu.Lock()
	c.virtualNS += perHop * depth
	c.mu.Unlock()
	c.metrics.BroadcastBytes.Add(bytes)
	c.tracer.Emit(Event{Kind: EventBroadcast, Task: -1, Attempt: -1, Executor: -1,
		Bytes: bytes, VirtualNS: perHop * depth})
}

// SlotCount returns the number of virtual task slots (executors x cores).
func (c *Cluster) SlotCount() int {
	return c.cfg.Executors * c.cfg.CoresPerExecutor
}
