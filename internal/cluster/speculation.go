package cluster

import (
	"errors"
	"fmt"
	"time"
)

// This file holds one stage's execution: each submission attempt runs every
// not-yet-committed task's attempt chain once on the task pool (pool.go),
// then a replay in virtual time decides everything about speculative copies,
// then every task that succeeded commits at one point, in task order.
//
// Speculation follows Spark's policy, applied to the committed virtual
// durations in the same discrete-event loop that places the tasks
// (virtualSchedule): once SpeculationQuantile of the submission's tasks have
// finished, a task still running past SpeculationMultiplier x the median
// finished duration gets one copy on another executor, provided its chain
// runs longer than speculationFloorNS. A copy never runs the task body. Its
// attempts draw their faults from the speculative injection stream, it gets
// no straggler draw, a pressure timeout ends its first attempt as it ends a
// primary's, and each attempt costs what the primary's successful attempt
// cost without its straggler charge. Whichever copy finishes first in
// virtual time completes the task, which then commits the primary's buffered
// side effects once, on the winner's executor. Nothing depends on real
// timing, so the speculative counters repeat run to run and at every pool
// size; the chaos harness (chaos_test.go) pins results and committed
// counters bit-for-bit against a sequential oracle.

// speculationFloorNS is the virtual time a task's chain must exceed before
// the replay will copy it: a copy of a sub-millisecond task could save less
// than the per-task scheduling it costs.
const speculationFloorNS = 1e6

// stageRun is one stage's execution state across its submission attempts
// (runStage resubmits the uncommitted tasks after lineage recovery).
type stageRun struct {
	c        *Cluster
	stageID  int
	name     string
	run      func(tc *TaskContext) error
	recovery bool
	// live is the submission attempt's live-executor list, set by runStage
	// before the attempt launches.
	live []int

	// chains holds each task's chain in the latest submission attempt. A
	// pool worker writes only the slots of the tasks it claims, and the
	// replay reads them after the pool has drained.
	chains    []chainResult
	committed []bool
	// results holds the committed task results (PublishResult).
	results []any

	// stats and makespanNS accumulate over the submission attempts.
	stats      StageStats
	makespanNS float64
}

// chainResult is what one task's attempt chain reports back: its virtual-time
// accounting and how it ended.
type chainResult struct {
	virtualNS     float64 // all attempts, after any spill penalty
	computeNS     float64
	shuffleWaitNS float64
	attempts      int
	failures      int
	stragglers    int
	// won is the successful attempt, its side effects buffered until the
	// commit point, and wonNS its virtual time; won is nil when the chain
	// ended in err.
	won   *TaskContext
	wonNS float64
	// copyNS is what one attempt of a speculative copy costs: the
	// successful attempt's virtual time without its straggler charge.
	copyNS float64
	// pressured marks a successful attempt whose working set exceeded
	// executor memory.
	pressured bool
	err       error
}

func (c *Cluster) newStageRun(stageID int, name string, numTasks int, run func(tc *TaskContext) error, collect, recovery bool) *stageRun {
	sr := &stageRun{
		c:         c,
		stageID:   stageID,
		name:      name,
		run:       run,
		recovery:  recovery,
		chains:    make([]chainResult, numTasks),
		committed: make([]bool, numTasks),
	}
	if collect {
		sr.results = make([]any, numTasks)
	}
	return sr
}

// executeAttempt runs one submission attempt: every not-yet-committed task's
// chain on the task pool, the replay that places the chains and their copies
// in virtual time, and the commit point.
func (sr *stageRun) executeAttempt() {
	var launch []int
	for i, done := range sr.committed {
		if !done {
			launch = append(launch, i)
		}
	}
	if len(launch) == 0 {
		return
	}
	sr.runPool(launch)

	cfg := sr.c.cfg
	speculate := cfg.Speculation && len(sr.committed) > 1
	tasks := make([]virtualTask, len(launch))
	copies := make([]int, len(launch)) // each copy's drawn attempts
	for j, task := range launch {
		ch := &sr.chains[task]
		tasks[j].primaryNS = ch.virtualNS
		if speculate && ch.won != nil && ch.virtualNS > speculationFloorNS {
			copies[j], tasks[j].specCanWin = sr.copyChain(task, ch.pressured)
			tasks[j].hasSpec = true
			tasks[j].specNS = float64(copies[j]) * ch.copyNS
		}
	}
	sr.makespanNS += sr.c.virtualSchedule(tasks, len(sr.live)*cfg.CoresPerExecutor)
	for j, task := range launch {
		sr.settle(task, &tasks[j], copies[j])
	}
}

// copyChain draws the attempts of task's speculative copy: attempts up to
// the first that no injected failure or pressure timeout ends, at most
// 1+MaxTaskRetries. It returns how many it drew and whether the last
// succeeds.
func (sr *stageRun) copyChain(task int, pressured bool) (int, bool) {
	for a := 0; a <= sr.c.cfg.MaxTaskRetries; a++ {
		if sr.c.attemptFault(sr.stageID, task, a, true, pressured) == "" {
			return a + 1, true
		}
	}
	return sr.c.cfg.MaxTaskRetries + 1, false
}

// settle accounts one launched task of the submission attempt as the replay
// placed it, traces its speculative copy and its outcome, and commits it if
// it succeeded. Called in task order, so commits land in task order.
func (sr *stageRun) settle(task int, vt *virtualTask, drawn int) {
	c := sr.c
	ch := &sr.chains[task]
	st := &sr.stats
	st.Attempts += ch.attempts
	st.Failures += ch.failures
	st.ComputeDuration += time.Duration(ch.computeNS)
	st.ShuffleWaitDuration += time.Duration(ch.shuffleWaitNS)
	st.Stragglers += ch.stragglers
	if ch.won == nil {
		return
	}
	tc := ch.won
	primary := Event{Kind: EventTaskSuccess, Stage: sr.name, StageID: sr.stageID,
		Task: task, Attempt: tc.attempt, Executor: tc.executor, VirtualNS: ch.wonNS}
	if vt.specStarted {
		st.SpeculativeTasks++
		st.WastedDuration += time.Duration(vt.wastedNS())
		primary.Outcome = "winner"
		exec := sr.replayCopy(task, vt, drawn)
		if vt.specWinner {
			st.SpeculativeWins++
			primary = Event{Kind: EventTaskCancelled, Stage: sr.name, StageID: sr.stageID,
				Task: task, Attempt: tc.attempt, Executor: tc.executor,
				Outcome: "loser", VirtualNS: vt.primaryChargedNS}
			tc.executor = exec
		}
	}
	c.tracer.Emit(primary)
	tc.commit()
	sr.committed[task] = true
	if sr.results != nil && tc.published {
		sr.results[task] = tc.result
	}
}

// replayCopy accounts and traces task's speculative copy as the virtual
// schedule ran it and returns the copy's executor. The copy ran its drawn
// attempts one after another from its launch; when the task completed first
// the copy stopped in the attempt it had reached, which becomes its loser.
func (sr *stageRun) replayCopy(task int, vt *virtualTask, drawn int) int {
	c := sr.c
	ch := &sr.chains[task]
	exec := c.hostFor(sr.live, sr.stageID, task, true)
	c.tracer.Emit(Event{Kind: EventTaskSpecLaunch, Stage: sr.name, StageID: sr.stageID,
		Task: task, Attempt: -1, Speculative: true, Executor: exec})
	started := drawn
	if vt.specChargedNS < vt.specNS && ch.copyNS > 0 {
		started = min(drawn, int(vt.specChargedNS/ch.copyNS)+1)
	}
	// A copy that did not win lost the race unless its drawn attempts all
	// failed before the task completed.
	lost := !vt.specWinner && (vt.specCanWin || vt.specChargedNS < vt.specNS)
	sr.stats.Attempts += started
	if ch.pressured {
		c.metrics.PressureEvents.Add(int64(started))
	}
	for a := 0; a < started; a++ {
		ev := Event{Kind: EventTaskStart, Stage: sr.name, StageID: sr.stageID, Task: task,
			Attempt: a, Speculative: true, Executor: exec}
		c.tracer.Emit(ev)
		ev.VirtualNS = ch.copyNS
		switch {
		case a < started-1 || !lost && !vt.specWinner:
			ev.Kind = c.attemptFault(sr.stageID, task, a, true, ch.pressured)
			sr.stats.Failures++
		case vt.specWinner:
			ev.Kind, ev.Outcome = EventTaskSuccess, "winner"
		default:
			ev.Kind, ev.Outcome, ev.VirtualNS = EventTaskCancelled, "loser", vt.specChargedNS
		}
		c.tracer.Emit(ev)
	}
	return exec
}

// attemptFault returns the injected fault that fails an attempt, or "" when
// none does: an injected failure, or a timeout on the first attempt of a
// task under memory pressure when PressureTimeouts is set.
func (c *Cluster) attemptFault(stageID, task, attempt int, speculative, pressured bool) EventKind {
	if pressured && c.cfg.PressureTimeouts && attempt == 0 {
		// Simulated executor timeout under memory pressure.
		return EventTaskPressureTimeout
	}
	if c.injectFailure(stageID, task, attempt, speculative) {
		return EventTaskFailInjected
	}
	return ""
}

// fetchFailures collects the *FetchFailedError terminal errors of the last
// attempt's uncommitted tasks, in task order. It returns nil when any
// uncommitted task failed for a different reason: genuine failures are not
// repairable by lineage resubmission, so the stage must fail as usual.
func (sr *stageRun) fetchFailures() []*FetchFailedError {
	var out []*FetchFailedError
	for i, done := range sr.committed {
		if done {
			continue
		}
		var ff *FetchFailedError
		if !errors.As(sr.chains[i].err, &ff) {
			return nil
		}
		out = append(out, ff)
	}
	return out
}

// runChain executes task's attempt chain on the executor hostFor places it
// on: up to 1+MaxTaskRetries attempts, each with a fresh TaskContext. Every
// attempt, failed or not, is charged the work it counted (cost.go) plus its
// simulated I/O; no attempt is timed.
// Injected failures, pressure timeouts and genuine errors consume the retry
// budget, as in Spark; the chain ends at its first successful attempt, whose
// side effects stay buffered for the commit point. sc is the pool worker's
// scratch, threaded to every attempt.
func (sr *stageRun) runChain(task int, sc *WorkerScratch) chainResult {
	c := sr.c
	cfg := c.cfg
	exec := c.hostFor(sr.live, sr.stageID, task, false)
	var out chainResult
	var lastErr error
	for attempt := 0; attempt <= cfg.MaxTaskRetries; attempt++ {
		tc := &TaskContext{cluster: c, stageID: sr.stageID, stageName: sr.name,
			task: task, attempt: attempt, executor: exec, recovery: sr.recovery, scratch: sc}
		c.tracer.Emit(Event{Kind: EventTaskStart, Stage: sr.name, StageID: sr.stageID,
			Task: task, Attempt: attempt, Executor: exec})

		stragglerNS := 0.0
		if c.injectStraggler(sr.stageID, task, attempt) {
			out.stragglers++
			c.metrics.StragglersInjected.Add(1)
			// The slowdown is a virtual charge only: nothing sleeps.
			stragglerNS = cfg.StragglerVirtualMS * 1e6
			tc.AddVirtualNS(stragglerNS)
			c.tracer.Emit(Event{Kind: EventTaskStraggler, Stage: sr.name, StageID: sr.stageID,
				Task: task, Attempt: attempt, Executor: exec, VirtualNS: stragglerNS})
		}

		err := sr.run(tc)
		computeNS := tc.computeNS()
		virtual := computeNS + tc.virtualNS + tc.shuffleWaitNS
		copyNS := virtual - stragglerNS

		pressured := false
		if tc.workingSetBytes > cfg.MemoryPerExecutorBytes {
			virtual *= cfg.spillPenalty
			copyNS *= cfg.spillPenalty
			pressured = true
			c.metrics.PressureEvents.Add(1)
		}
		out.attempts++
		out.virtualNS += virtual
		out.computeNS += computeNS
		out.shuffleWaitNS += tc.shuffleWaitNS

		if err != nil {
			out.failures++
			lastErr = err
			var ff *FetchFailedError
			if errors.As(err, &ff) {
				// A fetch failure is a stage-level fault, not a task
				// fault: the lost map outputs cannot reappear by retrying
				// the reduce task on the same inputs. The chain ends here
				// — without consuming further task retries — and the stage
				// scheduler recomputes the parent's lost partitions and
				// resubmits.
				out.err = err
				c.metrics.FetchFailures.Add(1)
				if c.tracer.Enabled() {
					c.tracer.Emit(Event{Kind: EventFetchFailed, Stage: sr.name, StageID: sr.stageID,
						Task: task, Attempt: attempt, Executor: exec,
						VirtualNS: virtual, Detail: err.Error()})
				}
				return out
			}
			if c.tracer.Enabled() {
				c.tracer.Emit(Event{Kind: EventTaskError, Stage: sr.name, StageID: sr.stageID,
					Task: task, Attempt: attempt, Executor: exec,
					VirtualNS: virtual, Detail: err.Error()})
			}
			continue
		}
		if kind := c.attemptFault(sr.stageID, task, attempt, false, pressured); kind != "" {
			out.failures++
			c.tracer.Emit(Event{Kind: kind, Stage: sr.name, StageID: sr.stageID,
				Task: task, Attempt: attempt, Executor: exec, VirtualNS: virtual})
			continue
		}
		out.won, out.wonNS, out.copyNS, out.pressured = tc, virtual, copyNS, pressured
		return out
	}
	if lastErr != nil {
		out.err = fmt.Errorf("%w: %w", ErrTaskFailed, lastErr)
	} else {
		out.err = ErrTaskFailed
	}
	return out
}
