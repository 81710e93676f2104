package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// This file holds the real-execution half of speculative execution: the
// per-stage runner that executes every task's primary attempt chain, the
// straggler monitor that launches speculative duplicate chains, and the
// first-completion-wins commit arbitration between rival chains.
//
// The policy mirrors Spark's: once SpeculationQuantile of a stage's tasks
// have committed, any task whose primary chain has been running longer than
// SpeculationMultiplier x the median committed real duration (but at least
// SpeculationMinRuntimeMS) gets one speculative duplicate chain. The two
// chains race; the first successful attempt wins an atomic per-task commit
// and cancels the rival via its attempt context. The loser's buffered side
// effects — shuffle writes, published results, metric deltas — are
// discarded, exactly like a failed attempt's, which is what the chaos
// harness (chaos_test.go) verifies bit-for-bit against a sequential oracle.

// stageRun coordinates one stage's real execution, possibly across several
// submission attempts (the resubmission loop in runStage re-runs the
// uncommitted tasks after lineage recovery).
type stageRun struct {
	c        *Cluster
	stageID  int
	name     string
	run      func(tc *TaskContext) error
	recovery bool
	// live is the stage attempt's live-executor list, set by runStage
	// before each attempt launches and stable while its chains run.
	live []int
	// sem gates the fixed worker pool plus the spares standing in for
	// paused workers: at most RealWorkers primary chains run at once.
	sem chan struct{}
	wg  sync.WaitGroup
	// pool is the current submission attempt's task pool. Written
	// by startPool before its workers launch and read only from chains
	// those workers run, so the wg.Wait between attempts orders all
	// accesses.
	pool *poolRun

	// results holds the committed task results (PublishResult); only the
	// single winning attempt of a task writes its slot, and readers wait
	// for wg, so no further synchronization is needed.
	results []any

	mu            sync.Mutex
	states        []taskState
	committedReal []float64 // real commit durations (ns), feeds the straggler median
}

// taskState is the commit/cancellation bookkeeping of one task.
type taskState struct {
	start         time.Time // primary chain start (zero until launched)
	committed     bool
	specWinner    bool // the speculative chain won the commit race
	specLaunched  bool
	primaryDone   bool
	specDone      bool
	executor      int // live executor the primary chain was placed on
	primaryCancel context.CancelFunc
	specCancel    context.CancelFunc
	primary       chainResult
	spec          chainResult
}

// chainResult is what one attempt chain (primary or speculative) reports
// back: its accumulated virtual-time accounting and how it ended.
type chainResult struct {
	ran           bool // the chain launched at all
	virtualNS     float64
	computeNS     float64
	shuffleWaitNS float64
	attempts      int
	failures      int
	stragglers    int
	succeeded     bool  // reached a successful attempt (won or lost the race)
	committed     bool  // won the commit race
	err           error // retries exhausted (nil when committed or abandoned)
}

// absorb merges a later submission attempt's chain accounting into the
// accumulated record: the work spent before a fetch-failure-triggered
// resubmission really happened and stays charged, while the terminal fields
// (succeeded/committed/err) reflect the latest attempt.
func (r *chainResult) absorb(res chainResult) {
	r.ran = r.ran || res.ran
	r.virtualNS += res.virtualNS
	r.computeNS += res.computeNS
	r.shuffleWaitNS += res.shuffleWaitNS
	r.attempts += res.attempts
	r.failures += res.failures
	r.stragglers += res.stragglers
	r.succeeded = res.succeeded
	r.committed = res.committed
	r.err = res.err
}

func (c *Cluster) newStageRun(stageID int, name string, numTasks int, run func(tc *TaskContext) error, collect, recovery bool) *stageRun {
	sr := &stageRun{
		c:        c,
		stageID:  stageID,
		name:     name,
		run:      run,
		recovery: recovery,
		sem:      make(chan struct{}, c.cfg.RealWorkers),
		states:   make([]taskState, numTasks),
	}
	for i := range sr.states {
		sr.states[i].executor = -1
	}
	if collect {
		sr.results = make([]any, numTasks)
	}
	return sr
}

// executeAttempt runs one submission attempt: every not-yet-committed task's
// primary chain on the task pool and, with speculation enabled,
// the straggler monitor alongside. It returns when every launched chain has
// finished, and — on every path — only after the monitor goroutine has
// stopped, so a failing stage never leaks it.
func (sr *stageRun) executeAttempt() {
	var launch []int
	sr.mu.Lock()
	for i := range sr.states {
		if !sr.states[i].committed {
			launch = append(launch, i)
		}
	}
	sr.mu.Unlock()
	if len(launch) == 0 {
		return
	}
	var stopMonitor, monitorDone chan struct{}
	if sr.c.cfg.Speculation && len(sr.states) > 1 {
		stopMonitor = make(chan struct{})
		monitorDone = make(chan struct{})
		go sr.monitor(stopMonitor, monitorDone)
	}
	defer func() {
		if stopMonitor != nil {
			close(stopMonitor)
			<-monitorDone
		}
	}()
	sr.startPool(launch)
	sr.wg.Wait()
}

// pauseSlot releases the chain's worker token around a blocking sleep and
// offers the freed capacity to a spare worker so unclaimed tasks keep running
// while this one stalls.
func (sr *stageRun) pauseSlot() {
	<-sr.sem
	sr.pool.ensureSpare()
}

// resumeSlot re-acquires a worker token after a blocking sleep.
func (sr *stageRun) resumeSlot() { sr.sem <- struct{}{} }

// fetchFailures collects the *FetchFailedError terminal errors of the last
// attempt's uncommitted tasks, in task order. It returns nil when any
// uncommitted task failed for a different reason: genuine failures are not
// repairable by lineage resubmission, so the stage must fail as usual.
func (sr *stageRun) fetchFailures() []*FetchFailedError {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	var out []*FetchFailedError
	for i := range sr.states {
		st := &sr.states[i]
		if st.committed {
			continue
		}
		var ff *FetchFailedError
		if !errors.As(st.primary.err, &ff) {
			return nil
		}
		out = append(out, ff)
	}
	return out
}

// resetForResubmit rearms the uncommitted tasks for the next submission
// attempt. Committed tasks keep their single commit; accumulated accounting
// stays (absorb merges the next attempt in), and specLaunched stays set so a
// task is speculated at most once across the whole stage.
func (sr *stageRun) resetForResubmit() {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	for i := range sr.states {
		st := &sr.states[i]
		if st.committed {
			continue
		}
		st.start = time.Time{}
		st.primaryDone = false
		st.specDone = false
		st.primary.err = nil
		st.primary.succeeded = false
		st.spec.err = nil
		st.spec.succeeded = false
	}
}

// monitor polls the stage's progress and launches speculative duplicate
// chains for stragglers. Speculative chains deliberately bypass the real
// worker semaphore: their rivals are typically blocked in simulated delays,
// and letting a speculative copy wait behind them would deadlock the very
// mitigation it implements.
func (sr *stageRun) monitor(stop, done chan struct{}) {
	defer close(done)
	cfg := sr.c.cfg
	n := len(sr.states)
	quantile := int(math.Ceil(cfg.SpeculationQuantile * float64(n)))
	if quantile < 1 {
		quantile = 1
	}
	minRuntimeNS := cfg.SpeculationMinRuntimeMS * 1e6
	ticker := time.NewTicker(cfg.SpeculationInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-sr.c.poolCtx.Done():
			// Cluster closed mid-stage: the chains' attempt contexts are
			// children of poolCtx and are waking too, so no straggler is
			// left to mitigate.
			return
		case <-ticker.C:
		}
		now := time.Now()
		sr.mu.Lock()
		if len(sr.committedReal) < quantile {
			sr.mu.Unlock()
			continue
		}
		sorted := append([]float64(nil), sr.committedReal...)
		sort.Float64s(sorted)
		threshold := cfg.SpeculationMultiplier * sorted[len(sorted)/2]
		if threshold < minRuntimeNS {
			threshold = minRuntimeNS
		}
		var launches []int
		for i := range sr.states {
			st := &sr.states[i]
			if st.committed || st.specLaunched || st.start.IsZero() {
				continue
			}
			if st.primaryDone {
				continue // exhausted its retries; nothing left to mitigate
			}
			if float64(now.Sub(st.start).Nanoseconds()) > threshold {
				// The primary chain is still running (primaryDone is
				// false), so wg cannot reach zero before this Add.
				st.specLaunched = true
				sr.wg.Add(1)
				launches = append(launches, i)
			}
		}
		sr.mu.Unlock()
		for _, task := range launches {
			sr.c.metrics.SpeculativeTasksLaunched.Add(1)
			sr.c.tracer.Emit(Event{Kind: EventTaskSpecLaunch, Stage: sr.name, StageID: sr.stageID,
				Task: task, Attempt: -1, Speculative: true,
				Executor: sr.c.hostFor(sr.live, sr.stageID, task, true)})
			go func(task int) {
				defer sr.wg.Done()
				sr.runChain(task, true, nil)
			}(task)
		}
	}
}

// runChain executes one attempt chain (primary or speculative) of a task.
// Placement is deterministic: the chain runs on hostFor's pick among the
// attempt's live executors (a speculative copy lands on a different host
// than its primary whenever one exists).
//
// sc is the worker-owned scratch threaded to every attempt's TaskContext;
// speculative chains, which no pool worker runs, pass nil and the chain
// checks one out of the cluster pool for its duration.
func (sr *stageRun) runChain(task int, speculative bool, sc *WorkerScratch) {
	if sc == nil {
		sc = sr.c.scratch.get()
		defer sr.c.scratch.put(sc)
	}
	// The attempt context is a child of the cluster's pool context, so
	// Cluster.Close cancels in-flight chains (waking straggler sleeps)
	// in addition to the rival-commit cancellation below.
	ctx, cancel := context.WithCancel(sr.c.poolCtx)
	defer cancel()
	exec := sr.c.hostFor(sr.live, sr.stageID, task, speculative)
	sr.mu.Lock()
	st := &sr.states[task]
	if speculative {
		st.specCancel = cancel
	} else {
		st.start = time.Now()
		st.primaryCancel = cancel
		st.executor = exec
	}
	alreadyCommitted := st.committed
	sr.mu.Unlock()

	var res chainResult
	if !alreadyCommitted {
		res = sr.runAttempts(ctx, task, speculative, exec, sc)
	}
	res.ran = true

	sr.mu.Lock()
	if speculative {
		st.spec.absorb(res)
		st.specDone = true
		st.specCancel = nil
	} else {
		st.primary.absorb(res)
		st.primaryDone = true
		st.primaryCancel = nil
	}
	sr.mu.Unlock()
}

// isCommitted reports whether the task already has a committed winner.
func (sr *stageRun) isCommitted(task int) bool {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.states[task].committed
}

// raced reports whether the task launched a speculative chain.
func (sr *stageRun) raced(task int) bool {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.states[task].specLaunched
}

// tryCommit arbitrates first-completion-wins: at most one attempt of a task
// ever commits. The winner cancels the rival chain and publishes the
// attempt's buffered side effects; a false return means a rival already won
// and the caller must discard.
func (sr *stageRun) tryCommit(task int, speculative bool, tc *TaskContext) bool {
	sr.mu.Lock()
	st := &sr.states[task]
	if st.committed {
		sr.mu.Unlock()
		return false
	}
	st.committed = true
	st.specWinner = speculative
	sr.committedReal = append(sr.committedReal, float64(time.Since(st.start).Nanoseconds()))
	var rival context.CancelFunc
	if speculative {
		rival = st.primaryCancel
	} else {
		rival = st.specCancel
	}
	sr.mu.Unlock()
	if rival != nil {
		rival()
	}
	tc.commit()
	if sr.results != nil && tc.published {
		sr.results[task] = tc.result
	}
	return true
}

// runAttempts is one chain's retry loop: up to 1+MaxTaskRetries attempts,
// each with a fresh TaskContext bound to the chain's cancellation context.
// Injected failures, pressure timeouts, and genuine errors consume the
// retry budget exactly as without speculation; a successful attempt races
// for the task commit and the chain ends either way.
func (sr *stageRun) runAttempts(ctx context.Context, task int, speculative bool, exec int, sc *WorkerScratch) chainResult {
	c := sr.c
	cfg := c.cfg
	var out chainResult
	var lastErr error
	for attempt := 0; attempt <= cfg.MaxTaskRetries; attempt++ {
		if ctx.Err() != nil || sr.isCommitted(task) {
			return out // abandoned: a rival won between attempts
		}
		tc := &TaskContext{cluster: c, ctx: ctx, stageID: sr.stageID, stageName: sr.name,
			task: task, attempt: attempt, speculative: speculative,
			executor: exec, recovery: sr.recovery, scratch: sc}
		if !speculative {
			// Primary chains hold a worker token; blocking sleeps yield it
			// so stalled tasks don't starve real workers, and a spare
			// worker soaks up the freed capacity.
			tc.pause = sr.pauseSlot
			tc.resume = sr.resumeSlot
		}
		c.tracer.Emit(Event{Kind: EventTaskStart, Stage: sr.name, StageID: sr.stageID,
			Task: task, Attempt: attempt, Speculative: speculative, Executor: exec})

		if c.injectStraggler(sr.stageID, task, attempt, speculative) {
			out.stragglers++
			c.metrics.StragglersInjected.Add(1)
			// The virtual cost is charged up front so a cancelled straggler
			// still accounts its would-be duration deterministically; the
			// real block gives the monitor a wall-clock window to race in.
			tc.AddVirtualNS(cfg.StragglerVirtualMS * 1e6)
			c.tracer.Emit(Event{Kind: EventTaskStraggler, Stage: sr.name, StageID: sr.stageID,
				Task: task, Attempt: attempt, Speculative: speculative, Executor: exec,
				VirtualNS: cfg.StragglerVirtualMS * 1e6})
			tc.sleep(time.Duration(cfg.StragglerRealDelayMS * 1e6))
		}

		tc.sleptNS = 0 // injected delay sits outside the compute window
		realStart := time.Now()
		err := sr.run(tc)
		computeNS := float64(time.Since(realStart).Nanoseconds()) - tc.sleptNS
		if computeNS < 0 {
			computeNS = 0
		}
		virtual := computeNS + tc.virtualNS + tc.shuffleWaitNS

		pressured := false
		if tc.workingSetBytes > int64(cfg.MemoryPerExecutorMB)*mb {
			virtual *= cfg.SpillPenalty
			pressured = true
			c.metrics.PressureEvents.Add(1)
		}
		out.attempts++
		out.virtualNS += virtual
		out.computeNS += computeNS
		out.shuffleWaitNS += tc.shuffleWaitNS

		if ctx.Err() != nil {
			// Cancelled mid-attempt by a winning rival: discard and stop.
			tc.discard()
			if c.tracer.Enabled() {
				c.tracer.Emit(Event{Kind: EventTaskCancelled, Stage: sr.name, StageID: sr.stageID,
					Task: task, Attempt: attempt, Speculative: speculative, Executor: exec,
					Outcome: "loser", VirtualNS: virtual})
			}
			return out
		}
		if err != nil {
			out.failures++
			lastErr = err
			tc.discard()
			var ff *FetchFailedError
			if errors.As(err, &ff) {
				// A fetch failure is a stage-level fault, not a task
				// fault: the lost map outputs cannot reappear by retrying
				// the reduce task on the same inputs. The chain ends here
				// — without consuming further task retries — and the stage
				// scheduler recomputes the parent's lost partitions and
				// resubmits.
				out.err = err
				if !speculative {
					c.metrics.FetchFailures.Add(1)
				}
				if c.tracer.Enabled() {
					c.tracer.Emit(Event{Kind: EventFetchFailed, Stage: sr.name, StageID: sr.stageID,
						Task: task, Attempt: attempt, Speculative: speculative, Executor: exec,
						VirtualNS: virtual, Detail: err.Error()})
				}
				return out
			}
			if c.tracer.Enabled() {
				c.tracer.Emit(Event{Kind: EventTaskError, Stage: sr.name, StageID: sr.stageID,
					Task: task, Attempt: attempt, Speculative: speculative, Executor: exec,
					VirtualNS: virtual, Detail: err.Error()})
			}
			continue
		}

		kind := EventKind("")
		if c.injectFailure(sr.stageID, task, attempt, speculative) {
			kind = EventTaskFailInjected
		}
		if pressured && cfg.PressureTimeouts && attempt == 0 {
			// Simulated executor timeout under memory pressure.
			kind = EventTaskPressureTimeout
		}
		if kind != "" {
			out.failures++
			tc.discard()
			c.tracer.Emit(Event{Kind: kind, Stage: sr.name, StageID: sr.stageID,
				Task: task, Attempt: attempt, Speculative: speculative, Executor: exec,
				VirtualNS: virtual})
			continue
		}

		// Successful attempt: race for the task's single commit.
		out.succeeded = true
		if sr.tryCommit(task, speculative, tc) {
			out.committed = true
			ev := Event{Kind: EventTaskSuccess, Stage: sr.name, StageID: sr.stageID,
				Task: task, Attempt: attempt, Speculative: speculative, Executor: exec,
				VirtualNS: virtual}
			if sr.raced(task) {
				ev.Outcome = "winner"
			}
			c.tracer.Emit(ev)
		} else {
			tc.discard()
			c.tracer.Emit(Event{Kind: EventTaskCancelled, Stage: sr.name, StageID: sr.stageID,
				Task: task, Attempt: attempt, Speculative: speculative, Executor: exec,
				Outcome: "loser", VirtualNS: virtual})
		}
		return out
	}
	if lastErr != nil {
		out.err = fmt.Errorf("%w: %w", ErrTaskFailed, lastErr)
	} else {
		out.err = ErrTaskFailed
	}
	return out
}
