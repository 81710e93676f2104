package cluster

import (
	"math"
	"sort"
)

// This file holds the virtual-clock scheduler, the one place speculation is
// decided. After a submission attempt's tasks have really executed,
// virtualSchedule places their counted attempt chains onto the live
// executors' slots in a discrete-event simulation of the greedy list
// schedule (FIFO or LPT order, each queued task starts the moment a slot
// frees), with Spark-style straggler speculation layered on: once
// SpeculationQuantile of the tasks have (virtually) finished, any running
// task that may be copied and is slower than SpeculationMultiplier x the
// median effective duration launches its copy on an idle slot, the first
// copy to finish completes the task, and the losing copy is cancelled and
// charged to its slot up to the completion time. Because speculative copies
// launch only on otherwise-idle slots after the task queue has drained, the
// makespan can never exceed that of the same stage without speculation; the
// property test pins this.
//
// A slot's identity never decides a time, so free slots are a count. A
// stage with no task that may be copied arms no trigger and sorts no median:
// each event is one finish, and the loop is the plain list schedule.

// policyOrder returns task indices in placement order: nil for FIFO, whose
// order is submission order, and longest-duration-first (stable) for LPT.
func policyOrder(tasks []virtualTask, policy SchedulePolicy) []int {
	if policy != ScheduleLPT {
		return nil
	}
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tasks[order[a]].primaryNS > tasks[order[b]].primaryNS
	})
	return order
}

// virtualTask is one task as the virtual scheduler sees it: its counted
// attempt chain and its would-be copy, set by the caller, and the
// scheduler's charges for them.
type virtualTask struct {
	// primaryNS is the primary chain's total virtual duration (all its
	// attempts, after any spill penalty).
	primaryNS float64
	// specNS is the speculative copy's total virtual duration, all its
	// drawn attempts; only meaningful when hasSpec.
	specNS float64
	// hasSpec marks tasks that may be copied: speculation is on, the
	// primary succeeded and ran past the speculation floor.
	hasSpec bool
	// specCanWin marks copies whose drawn attempts end in a success and
	// could therefore complete the task. A copy whose attempts all fail
	// only wastes slot time.
	specCanWin bool

	taskCharge // set by virtualSchedule
}

// taskCharge is the virtual scheduler's verdict on one task, and the
// simulation's state for it while the loop runs.
type taskCharge struct {
	startNS      float64 // primary start
	specLaunchNS float64 // speculative copy launch, 0 if none

	// primaryChargedNS / specChargedNS are the virtual time charged to
	// each copy's slot: the full duration for the copy that completed the
	// task, and the truncated time-until-cancellation for the losing copy.
	primaryChargedNS float64
	specChargedNS    float64

	// specStarted reports that the speculative copy got a slot in the
	// virtual schedule; specWinner that it completed the task there.
	specStarted bool
	specWinner  bool

	primaryRunning, specRunning, triggered bool
}

// wastedNS is the virtual time charged to the losing copy of a task whose
// speculative copy ran in the virtual schedule, 0 for any other task.
func (p *taskCharge) wastedNS() float64 {
	switch {
	case !p.specStarted:
		return 0
	case p.specWinner:
		return p.primaryChargedNS
	default:
		return p.specChargedNS
	}
}

// simEvent kinds, ordered by processing priority at equal times.
const (
	evFinish      = iota // a running copy finished
	evSpecTrigger        // a task crossed the straggler threshold
)

// simEvent is one pending event. Its key packs (kind, task, copy) so that
// eventBefore compares two words: finishes before triggers, then lower task
// index, primary before speculative copy.
type simEvent struct {
	atNS float64
	key  uint64
}

func newEvent(atNS float64, kind, task int, spec bool) simEvent {
	key := uint64(kind)<<62 | uint64(task)<<1
	if spec {
		key |= 1
	}
	return simEvent{atNS: atNS, key: key}
}

func (e simEvent) kind() int  { return int(e.key >> 62) }
func (e simEvent) task() int  { return int(e.key << 2 >> 3) }
func (e simEvent) spec() bool { return e.key&1 == 1 }

// eventBefore fixes a deterministic total order on simultaneous events:
// finishes before triggers, then lower task index, primary before spec.
func eventBefore(a, b simEvent) bool {
	return a.atNS < b.atNS || a.atNS == b.atNS && a.key < b.key
}

// eventQueue is a binary min-heap of pending events under eventBefore. No
// two pending events compare equal, so it pops them in the one order
// eventBefore fixes. pop leaves the root as a hole that the next push fills
// with one sift-down, so a finish that starts the next task (the common
// step) costs one sift instead of two.
type eventQueue struct {
	h    []simEvent
	hole bool // h[0] was popped and awaits a replacement
}

func (q *eventQueue) len() int {
	if q.hole {
		return len(q.h) - 1
	}
	return len(q.h)
}

func (q *eventQueue) push(e simEvent) {
	if q.hole {
		q.hole = false
		q.down(e)
	} else {
		q.up(e)
	}
}

func (q *eventQueue) pop() simEvent {
	if q.hole {
		q.dropRoot()
	}
	q.hole = true
	return q.h[0]
}

// up appends e and sifts it up to restore the heap property.
func (q *eventQueue) up(e simEvent) {
	q.h = append(q.h, e)
	h := q.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// dropRoot removes the popped root, moving the last event into its place.
func (q *eventQueue) dropRoot() {
	last := len(q.h) - 1
	e := q.h[last]
	q.h = q.h[:last]
	q.down(e)
}

// down places e at the root and sifts it down to restore the heap property.
func (q *eventQueue) down(e simEvent) {
	h := q.h
	i := 0
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if right := child + 1; right < len(h) && eventBefore(h[right], h[child]) {
			child = right
		}
		if !eventBefore(h[child], e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}

// virtualRun is one virtualSchedule call's simulation state, beyond the
// free-slot count and queue position its loop keeps in locals.
type virtualRun struct {
	tasks  []virtualTask
	events eventQueue
	// waiting holds triggered tasks whose copy has not launched yet, in
	// trigger order.
	waiting []int

	// The straggler threshold (multiplier x median effective duration)
	// is fixed once quantileCount tasks have finished; only stages with a
	// task that may be copied (specTasks > 0) track it.
	specTasks     int
	quantileCount int
	multiplier    float64
	completed     []float64 // effective durations, in completion order
	medianKnown   bool
	threshold     float64
}

// virtualSchedule places the tasks' chains onto slots virtual slots, sets
// each task's charges and returns the stage makespan.
func (c *Cluster) virtualSchedule(tasks []virtualTask, slots int) float64 {
	n := len(tasks)
	r := virtualRun{
		tasks:      tasks,
		events:     eventQueue{h: make([]simEvent, 0, min(n, max(slots, 1)))},
		multiplier: c.cfg.SpeculationMultiplier,
	}
	for i := range tasks {
		tasks[i].taskCharge = taskCharge{}
		if tasks[i].hasSpec {
			r.specTasks++
		}
	}
	if r.specTasks > 0 {
		r.quantileCount = max(1, int(math.Ceil(c.cfg.SpeculationQuantile*float64(n))))
	}

	queue := policyOrder(tasks, c.cfg.Scheduling) // nil: submission order
	free, next := max(slots, 1), 0
	makespan, now := 0.0, 0.0
	for {
		// Fill idle slots: queued primaries first, then, once the queue
		// has drained (so speculation never delays a primary), triggered
		// tasks' speculative copies in trigger order.
		for ; free > 0 && next < n; next++ {
			task := next
			if queue != nil {
				task = queue[next]
			}
			free--
			p := &tasks[task]
			p.primaryRunning = true
			p.startNS = now
			r.events.push(newEvent(now+p.primaryNS, evFinish, task, false))
			if r.medianKnown && p.hasSpec && !p.triggered {
				r.arm(task, now)
			}
		}
		if next == n && len(r.waiting) > 0 {
			free -= r.startCopies(free, now)
		}

		if r.events.len() == 0 {
			return makespan
		}
		e := r.events.pop()
		now = e.atNS
		task := e.task()
		p := &tasks[task]
		// A running copy's task is not complete: completing a task stops
		// both copies, and the loser is charged up to the completion.
		switch {
		case e.kind() == evSpecTrigger:
			if p.primaryRunning && !p.specStarted {
				r.waiting = append(r.waiting, task)
			}
			continue
		case e.spec():
			if !p.specRunning {
				continue // cancelled earlier
			}
			p.specRunning = false
			free++
			if !p.specCanWin {
				// A doomed copy only wasted its slot.
				p.specChargedNS = p.specNS
				break
			}
			p.specWinner = true
			p.specChargedNS = p.specNS
			p.primaryChargedNS = now - p.startNS
			p.primaryRunning = false
			free++
			r.record(now, now-p.startNS)
		default:
			if !p.primaryRunning {
				continue // cancelled earlier
			}
			p.primaryRunning = false
			free++
			p.primaryChargedNS = p.primaryNS
			if p.specRunning {
				p.specChargedNS = now - p.specLaunchNS
				p.specRunning = false
				free++
			}
			if r.specTasks > 0 {
				r.record(now, now-p.startNS)
			}
		}
		makespan = now
	}
}

// startCopies starts waiting tasks' speculative copies at t on up to free
// slots and returns how many it started.
func (r *virtualRun) startCopies(free int, t float64) int {
	started := 0
	for len(r.waiting) > 0 {
		task := r.waiting[0]
		p := &r.tasks[task]
		// A task whose primary stopped is complete.
		if !p.primaryRunning || p.specStarted {
			r.waiting = r.waiting[1:]
			continue
		}
		if started == free {
			break
		}
		r.waiting = r.waiting[1:]
		started++
		p.specRunning = true
		p.specStarted = true
		p.specLaunchNS = t
		r.events.push(newEvent(t+p.specNS, evFinish, task, true))
	}
	return started
}

// arm schedules task's straggler trigger, no earlier than now.
func (r *virtualRun) arm(task int, now float64) {
	p := &r.tasks[task]
	p.triggered = true
	r.events.push(newEvent(math.Max(now, p.startNS+r.threshold), evSpecTrigger, task, false))
}

// record notes a task finishing at t after running for d. Once
// quantileCount tasks have finished it fixes the straggler threshold and arms
// the trigger of every running task that may be copied.
func (r *virtualRun) record(t, d float64) {
	r.completed = append(r.completed, d)
	if r.medianKnown || len(r.completed) < r.quantileCount {
		return
	}
	r.medianKnown = true
	sorted := append([]float64(nil), r.completed...)
	sort.Float64s(sorted)
	r.threshold = r.multiplier * sorted[len(sorted)/2]
	for i := range r.tasks {
		if p := &r.tasks[i]; p.primaryRunning && p.hasSpec && !p.triggered {
			r.arm(i, t)
		}
	}
}
