package cluster

import (
	"context"
	"time"
)

// TaskContext is handed to every task attempt. It accumulates the attempt's
// simulated I/O time, bookkeeping counters, and buffered shuffle writes.
//
// All observable side effects of an attempt are commit-on-success, as in
// Spark: shuffle writes become visible to downstream stages, the published
// task result is surfaced, and metric deltas (records, comparisons, shuffle
// bytes read/written) are folded into the cluster-wide Metrics registry,
// only when the attempt succeeds AND wins the task's commit race. A failed,
// fail-injected, or speculation-losing attempt's buffered writes and counter
// deltas are discarded, which is what makes task retry and speculative
// duplicate attempts safe — and what keeps the experiment harness's
// comparison/shuffle counters identical between fault-free, fault-injected,
// and speculative runs of the same job.
//
// A TaskContext is used by a single goroutine (its attempt); it must not be
// shared across attempts. With speculation enabled, two attempts of the same
// task may run concurrently — each gets its own TaskContext, and closures
// that publish output must do so through the commit-gated channels
// (WriteShuffleAs, PublishResult, the metric counters) or their own
// synchronization.
type TaskContext struct {
	cluster     *Cluster
	ctx         context.Context
	stageID     int
	stageName   string
	task        int
	attempt     int
	speculative bool
	// executor is the live executor this attempt's chain was placed on;
	// committed shuffle blocks and cached partitions are hosted there and
	// die with it.
	executor int
	// recovery marks attempts of a patch-up stage regenerating lost
	// output. Their shuffle writes commit normally (the data must come
	// back) but their work-counter deltas are NOT folded into the metrics
	// registry: the regenerated output was already counted when it first
	// committed, and double-counting it would make recovered runs diverge
	// from the sequential oracle. Recovery cost is accounted separately
	// (RecomputedTasks/RecomputedStages and virtual time).
	recovery bool

	// Attempt-scoped virtual time. virtualNS is general simulated I/O
	// (broadcast reads, user-charged waits); shuffleWaitNS is the share
	// spent fetching shuffle blocks, tracked separately so StageStats can
	// report a compute vs. shuffle-wait breakdown. sleptNS is real
	// wall-clock time spent blocked in sleep, subtracted from the
	// attempt's measured compute time.
	virtualNS       float64
	shuffleWaitNS   float64
	sleptNS         float64
	workingSetBytes int64

	// scratch is the worker-owned reusable buffer bundle for this attempt.
	// The pool worker running a primary chain owns it for the whole stage;
	// a speculative chain checks one out per task. Either way it is never
	// shared between concurrently running attempts.
	scratch *WorkerScratch

	// pause/resume yield and re-acquire the attempt's real worker slot
	// around blocking sleeps: a task stalled in simulated delay burns no
	// CPU, so holding a worker token would starve other tasks —
	// and, on small hosts, the very completions the straggler monitor's
	// quantile gate waits for. Nil for attempts that hold no token
	// (speculative chains).
	pause  func()
	resume func()

	// Buffered metric deltas, folded into cluster.Metrics in commit().
	records          int64
	comparisons      int64
	shuffleBytesRead int64

	pendingShuffle []pendingWrite

	// result is the value buffered by PublishResult; published holds
	// whether it was set (so a typed nil still publishes).
	result    any
	published bool
}

type pendingWrite struct {
	shuffleID int
	reduceID  int
	mapTask   int
	seq       int
	data      any
	records   int64
	bytes     int64
}

// Task returns the task's index within its stage.
func (tc *TaskContext) Task() int { return tc.task }

// Attempt returns the zero-based attempt number of this execution within its
// chain (the primary and speculative chains number attempts independently).
func (tc *TaskContext) Attempt() int { return tc.attempt }

// Speculative reports whether this attempt belongs to a speculative
// duplicate chain launched by the straggler monitor.
func (tc *TaskContext) Speculative() bool { return tc.speculative }

// Executor returns the live executor this attempt runs on. Side effects the
// task hosts locally (shuffle map output, cached partitions) are lost if
// that executor later fails.
func (tc *TaskContext) Executor() int { return tc.executor }

// Scratch returns the attempt's worker-owned scratch buffers. Kernels use it
// for zero-alloc temporary storage: the buffers grow to each worker's
// high-water mark once and are reused by every later task on that worker.
// The scratch is exclusive to this attempt while it runs — concurrent tasks
// on other workers hold different instances — but its buffer contents are
// unspecified at attempt start (stale data from a previous task), except
// the zeroed tables, which every attempt finds and leaves all zero.
func (tc *TaskContext) Scratch() *WorkerScratch {
	if tc.scratch == nil {
		// Bare TaskContexts (tests, direct construction) still work; they
		// just allocate a private scratch on first use.
		tc.scratch = &WorkerScratch{}
	}
	return tc.scratch
}

// Context returns the attempt's context. It is cancelled when a rival
// attempt of the same task commits first (speculation's
// first-completion-wins), so long-running task closures can poll it to stop
// early. The attempt's buffered side effects are discarded either way.
func (tc *TaskContext) Context() context.Context {
	if tc.ctx == nil {
		return context.Background()
	}
	return tc.ctx
}

// sleep blocks for up to d, waking early on attempt cancellation, and
// records the slept time so it can be excluded from measured compute. The
// attempt's real worker slot is yielded for the duration of the block.
func (tc *TaskContext) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	start := time.Now()
	if tc.pause != nil {
		tc.pause()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-tc.Context().Done():
	}
	if tc.pause != nil {
		tc.resume()
	}
	// The re-acquire wait counts as slept, not compute: the task did no
	// work while queueing for a slot.
	tc.sleptNS += float64(time.Since(start).Nanoseconds())
}

// PublishResult buffers v as the attempt's task result. The winning
// attempt's value becomes the task's entry in the results returned by
// RunStageResults; losing and failed attempts' values are discarded.
func (tc *TaskContext) PublishResult(v any) {
	tc.result = v
	tc.published = true
}

// AddRecords counts records processed by the task (throughput metric). The
// count is buffered and committed only if the attempt succeeds.
func (tc *TaskContext) AddRecords(n int64) {
	tc.records += n
}

// AddComparisons counts pairwise comparisons performed by the task; the
// experiment harness reads this for the paper's Figs. 7-8. The count is
// buffered and committed only if the attempt succeeds.
func (tc *TaskContext) AddComparisons(n int64) {
	tc.comparisons += n
}

// AddVirtualNS adds simulated (non-CPU) time to the attempt, e.g. network
// waits. It does not consume real time.
func (tc *TaskContext) AddVirtualNS(ns float64) {
	if ns > 0 {
		tc.virtualNS += ns
	}
}

// SetWorkingSetBytes declares the task's peak in-memory working set. When it
// exceeds the executor memory budget the scheduler applies the spill penalty
// (and, if configured, a first-attempt timeout failure).
func (tc *TaskContext) SetWorkingSetBytes(n int64) {
	if n > tc.workingSetBytes {
		tc.workingSetBytes = n
	}
}

// WriteShuffleAs buffers one output bucket for the given shuffle and reduce
// partition, as map task mapTask's output. The write is committed when the
// attempt succeeds. Committed buckets are keyed by (map task, write
// sequence), so a duplicate commit of the same deterministic output — e.g.
// by a retried or speculative attempt — is idempotent: the bucket contents
// equal a single write. A recovery task regenerating executor-lost output
// runs under its own patch-up stage's task numbering but must commit blocks
// under the original map partition's (map task, seq) keys, or the
// recomputed blocks would not splice back into the reduce-side sort order
// the first run established.
func (tc *TaskContext) WriteShuffleAs(shuffleID, reduceID, mapTask int, data any, records, bytes int64) {
	tc.pendingShuffle = append(tc.pendingShuffle, pendingWrite{
		shuffleID: shuffleID,
		reduceID:  reduceID,
		mapTask:   mapTask,
		seq:       len(tc.pendingShuffle),
		data:      data,
		records:   records,
		bytes:     bytes,
	})
}

// FetchShuffle reads all committed map-output blocks for the given reduce
// partition and charges the simulated network transfer to this attempt as
// shuffle-wait time. The bytes-read metric is buffered and committed only if
// the attempt succeeds.
//
// When any map output the partition depends on was lost with its executor,
// FetchShuffle returns a *FetchFailedError. The task must propagate it: the
// scheduler recognizes the error, recomputes the lost map partitions from
// lineage, and resubmits the stage — retrying the fetch locally cannot bring
// the blocks back.
func (tc *TaskContext) FetchShuffle(shuffleID, reduceID int) ([]any, error) {
	blocks, bytes, spillNS, ff, err := tc.cluster.shuffles.fetch(shuffleID, reduceID)
	if ff != nil {
		return nil, ff
	}
	if err != nil {
		return nil, err
	}
	cfg := tc.cluster.cfg
	transferNS := float64(bytes)/(cfg.NetworkMBps*1e6)*1e9 +
		cfg.ShuffleLatencyMS*1e6*float64(len(blocks))
	// Spilled blocks cost their disk read-back on top of the network
	// transfer; both are I/O wait from the reduce attempt's perspective.
	transferNS += spillNS
	if transferNS > 0 {
		tc.shuffleWaitNS += transferNS
	}
	tc.shuffleBytesRead += bytes
	return blocks, nil
}

// commit publishes the attempt's buffered side effects: shuffle output
// becomes fetchable and metric deltas are folded into the cluster registry.
// It is only ever called for the single attempt that won the task's commit
// arbitration, so exactly one attempt per task publishes.
func (tc *TaskContext) commit() {
	m := tc.cluster.metrics
	for _, w := range tc.pendingShuffle {
		tc.cluster.shuffles.write(w.shuffleID, w.reduceID, w.mapTask, w.seq, tc.executor, w.data, w.bytes)
		if !tc.recovery {
			m.ShuffleBytesWritten.Add(w.bytes)
			m.ShuffleRecordsWritten.Add(w.records)
		}
	}
	tc.pendingShuffle = nil
	if tc.recovery {
		// Recomputed work re-creates already-counted output; folding its
		// deltas in again would break the work-counter invariance against
		// the sequential oracle (see the recovery field).
		tc.records, tc.comparisons, tc.shuffleBytesRead = 0, 0, 0
		return
	}
	if tc.records != 0 {
		m.RecordsProcessed.Add(tc.records)
	}
	if tc.comparisons != 0 {
		m.Comparisons.Add(tc.comparisons)
	}
	if tc.shuffleBytesRead != 0 {
		m.ShuffleBytesRead.Add(tc.shuffleBytesRead)
	}
	tc.records, tc.comparisons, tc.shuffleBytesRead = 0, 0, 0
}

// discard drops the attempt's buffered side effects (failed attempt).
func (tc *TaskContext) discard() {
	tc.pendingShuffle = nil
	tc.records, tc.comparisons, tc.shuffleBytesRead = 0, 0, 0
}
