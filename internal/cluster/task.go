package cluster

// TaskContext is handed to every task attempt. It accumulates the attempt's
// counted work, simulated I/O time, and buffered shuffle writes.
//
// All observable side effects of an attempt are commit-on-success, as in
// Spark: shuffle writes become visible to downstream stages, the published
// task result is surfaced, and metric deltas (records, comparisons, shuffle
// bytes read/written) are folded into the cluster-wide Metrics registry,
// only when the attempt succeeds, at the stage's commit point after every
// chain of the submission attempt has run. A failed or fail-injected
// attempt's buffered writes and counter deltas are dropped with it, which is
// what makes task retry safe — and what keeps the experiment harness's
// comparison/shuffle counters identical between fault-free, fault-injected,
// and speculative runs of the same job.
//
// A TaskContext is used by a single goroutine (its attempt); it must not be
// shared across attempts. Attempts of one task run one after another, never
// at once: a task's chain runs once on one pool worker, and a speculative
// copy is decided in virtual time without running the task body.
type TaskContext struct {
	cluster   *Cluster
	stageID   int
	stageName string
	task      int
	attempt   int
	// executor is the live executor this attempt's chain was placed on;
	// cached partitions are hosted there, and committed shuffle blocks on
	// the executor of the copy that completed the task. Both die with their
	// host.
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
	// (broadcast reads, user-charged waits, an injected straggler's
	// charge); shuffleWaitNS is the share spent fetching shuffle blocks,
	// tracked separately so StageStats can report a compute vs.
	// shuffle-wait breakdown.
	virtualNS       float64
	shuffleWaitNS   float64
	workingSetBytes int64

	// scratch is the buffer bundle of the pool worker running this
	// attempt, which owns it for the whole stage; it is never shared
	// between concurrently running attempts.
	scratch *WorkerScratch

	// Buffered metric deltas, folded into cluster.Metrics in commit().
	// records and comparisons, with distances, are also the work the
	// attempt's virtual compute is priced from (cost.go).
	records          int64
	comparisons      int64
	shuffleBytesRead int64
	// distances counts the attempt's vector-distance evaluations. It only
	// prices compute: the classifier layer reports its own distance counts.
	distances int64

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
// task's chain.
func (tc *TaskContext) Attempt() int { return tc.attempt }

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

// PublishResult buffers v as the attempt's task result. The successful
// attempt's value becomes the task's entry in the results returned by
// RunStageResults; failed attempts' values are discarded.
func (tc *TaskContext) PublishResult(v any) {
	tc.result = v
	tc.published = true
}

// AddRecords counts records processed by the task (throughput metric). The
// count is buffered and committed only if the attempt succeeds; every attempt
// is charged its virtual compute.
func (tc *TaskContext) AddRecords(n int64) {
	tc.records += n
}

// AddComparisons counts feature-pair comparisons performed by the task (the
// Comparisons metric). The count is buffered and committed only if the
// attempt succeeds; every attempt is charged its virtual compute.
func (tc *TaskContext) AddComparisons(n int64) {
	tc.comparisons += n
}

// AddDistances counts vector-distance evaluations performed by the task, e.g.
// a kNN search's distances to training pairs. The count only prices the
// attempt's virtual compute; no metric holds it.
func (tc *TaskContext) AddDistances(n int64) {
	tc.distances += n
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
// sequence), so a duplicate commit of the same deterministic output is
// idempotent: the bucket contents equal a single write. A recovery task
// regenerating executor-lost output runs under its own patch-up stage's task
// numbering but must commit blocks under the original map partition's
// (map task, seq) keys, or the recomputed blocks would not splice back into
// the reduce-side sort order the first run established.
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
	// Spilled blocks cost their disk read-back on top of the network
	// transfer; both are I/O wait from the reduce attempt's perspective.
	tc.shuffleWaitNS += networkNS(bytes, len(blocks)) + spillNS
	tc.shuffleBytesRead += bytes
	return blocks, nil
}

// commit publishes the attempt's buffered side effects: shuffle output
// becomes fetchable on tc.executor and metric deltas are folded into the
// cluster registry. The stage's commit point calls it once per task, for
// the task's successful attempt, so exactly one attempt per task publishes.
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
