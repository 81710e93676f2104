package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// schedule runs the virtual scheduler over speculation-free tasks of the
// given durations on all of c's slots and returns the makespan.
func schedule(c *Cluster, durations []float64) float64 {
	tasks := make([]virtualTask, len(durations))
	for i, d := range durations {
		tasks[i].primaryNS = d
	}
	return c.virtualSchedule(tasks, c.SlotCount())
}

func TestSchedulePolicyString(t *testing.T) {
	if ScheduleFIFO.String() != "fifo" || ScheduleLPT.String() != "lpt" {
		t.Error("policy strings wrong")
	}
}

func TestLPTBeatsFIFOOnSkewedTasks(t *testing.T) {
	// Skewed durations with the long task last: FIFO fills slots with
	// short tasks first and the straggler lands on a loaded slot; LPT
	// places it first. This is the load-balancing gain the paper's §7
	// names as future work.
	durations := []float64{10, 10, 10, 10, 10, 10, 100}
	fifo := New(Config{Executors: 2, CoresPerExecutor: 1})
	lpt := New(Config{Executors: 2, CoresPerExecutor: 1, Scheduling: ScheduleLPT})
	f := schedule(fifo, durations)
	l := schedule(lpt, durations)
	if l >= f {
		t.Errorf("LPT makespan %v not below FIFO %v", l, f)
	}
	// LPT optimum here: slot A = 100, slot B = 60 -> makespan 100.
	if l != 100 {
		t.Errorf("LPT makespan = %v, want 100", l)
	}
	// FIFO: A = 10+10+10 = 30... tasks alternate; the 100 lands on a slot
	// with 30 already -> 130.
	if f != 130 {
		t.Errorf("FIFO makespan = %v, want 130", f)
	}
}

func TestLPTDoesNotMutateCallerDurations(t *testing.T) {
	c := New(Config{Executors: 2, Scheduling: ScheduleLPT})
	tasks := []virtualTask{{primaryNS: 1}, {primaryNS: 5}, {primaryNS: 2}}
	c.virtualSchedule(tasks, c.SlotCount())
	if tasks[0].primaryNS != 1 || tasks[1].primaryNS != 5 || tasks[2].primaryNS != 2 {
		t.Error("virtualSchedule mutated the caller's tasks")
	}
}

func TestLPTNeverWorseThanFIFO(t *testing.T) {
	cases := [][]float64{
		{},
		{5},
		{1, 1, 1, 1},
		{9, 1, 8, 2, 7, 3},
		{100, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9},
	}
	for _, durations := range cases {
		for _, slots := range []int{1, 2, 3, 5} {
			fifo := New(Config{Executors: slots, CoresPerExecutor: 1})
			lpt := New(Config{Executors: slots, CoresPerExecutor: 1, Scheduling: ScheduleLPT})
			f := schedule(fifo, durations)
			l := schedule(lpt, durations)
			// LPT is a 4/3-approximation; against FIFO's arbitrary
			// order it can only tie or win on these adversarial
			// inputs (long task last).
			if l > f {
				t.Errorf("slots=%d durations=%v: LPT %v worse than FIFO %v", slots, durations, l, f)
			}
		}
	}
}

// placementOrder is policyOrder with FIFO's submission order spelled out.
func placementOrder(c *Cluster, tasks []virtualTask) []int {
	if order := policyOrder(tasks, c.cfg.Scheduling); order != nil {
		return order
	}
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	return order
}

// refCharge is the reference scheduler's per-task verdict.
type refCharge struct {
	primaryChargedNS, specChargedNS float64
	specStarted, specWinner         bool
}

// refEvent is the reference scheduler's event, unpacked.
type refEvent struct {
	atNS    float64
	trigger bool // a straggler trigger, else a finish
	task    int
	spec    bool // for a finish: which copy finished
}

// refEventBefore orders simultaneous reference events: finishes before
// triggers, then lower task index, primary before spec.
func refEventBefore(a, b refEvent) bool {
	if a.atNS != b.atNS {
		return a.atNS < b.atNS
	}
	if a.trigger != b.trigger {
		return b.trigger
	}
	if a.task != b.task {
		return a.task < b.task
	}
	return !a.spec && b.spec
}

// referenceSchedule is the discrete-event scheduler virtualSchedule
// replaced, kept as the behavioural reference: a linear scan pops the
// earliest event, slots are tracked one by one (lowest idle index wins),
// and the straggler median is tracked for every stage.
func referenceSchedule(c *Cluster, tasks []virtualTask, slots int) (float64, []refCharge) {
	n := len(tasks)
	if slots < 1 {
		slots = 1
	}
	quantileCount := int(math.Ceil(c.cfg.SpeculationQuantile * float64(n)))
	if quantileCount < 1 {
		quantileCount = 1
	}
	queue := placementOrder(c, tasks)
	queueIdx := 0

	type refPlace struct {
		refCharge
		slot, specSlot       int
		startNS, specLaunch  float64
		primaryRun, specRun  bool
		done, launched, trig bool
	}
	place := make([]refPlace, n)
	slotIdle := make([]bool, slots)
	for i := range slotIdle {
		slotIdle[i] = true
	}
	idleSlot := func() int {
		for s, idle := range slotIdle {
			if idle {
				return s
			}
		}
		return -1
	}
	var events []refEvent
	pop := func() (refEvent, bool) {
		best := -1
		for i, e := range events {
			if best < 0 || refEventBefore(e, events[best]) {
				best = i
			}
		}
		if best < 0 {
			return refEvent{}, false
		}
		e := events[best]
		events = append(events[:best], events[best+1:]...)
		return e, true
	}
	var completed []float64
	medianKnown := false
	var threshold float64
	done := 0

	trigger := func(task int, t float64) {
		place[task].trig = true
		events = append(events, refEvent{atNS: math.Max(t, place[task].startNS+threshold), trigger: true, task: task})
	}
	startPrimary := func(task, slot int, t float64) {
		slotIdle[slot] = false
		place[task].primaryRun = true
		place[task].slot = slot
		place[task].startNS = t
		events = append(events, refEvent{atNS: t + tasks[task].primaryNS, task: task})
		if medianKnown && tasks[task].hasSpec && !place[task].trig {
			trigger(task, t)
		}
	}
	startSpec := func(task, slot int, t float64) {
		slotIdle[slot] = false
		place[task].specRun = true
		place[task].launched = true
		place[task].specStarted = true
		place[task].specSlot = slot
		place[task].specLaunch = t
		events = append(events, refEvent{atNS: t + tasks[task].specNS, task: task, spec: true})
	}
	var waiting []int
	fill := func(t float64) {
		for queueIdx < n {
			s := idleSlot()
			if s < 0 {
				return
			}
			startPrimary(queue[queueIdx], s, t)
			queueIdx++
		}
		for len(waiting) > 0 {
			task := waiting[0]
			if place[task].done || place[task].launched {
				waiting = waiting[1:]
				continue
			}
			s := idleSlot()
			if s < 0 {
				return
			}
			waiting = waiting[1:]
			startSpec(task, s, t)
		}
	}
	complete := func(task int, t float64, bySpec bool) {
		p := &place[task]
		p.done = true
		p.specWinner = bySpec
		if bySpec {
			p.specChargedNS = tasks[task].specNS
			p.primaryChargedNS = t - p.startNS
			p.primaryRun = false
			slotIdle[p.slot] = true
		} else {
			p.primaryChargedNS = tasks[task].primaryNS
			if p.specRun {
				p.specChargedNS = t - p.specLaunch
				p.specRun = false
				slotIdle[p.specSlot] = true
			}
		}
		done++
		completed = append(completed, t-p.startNS)
		if !medianKnown && done >= quantileCount {
			medianKnown = true
			sorted := append([]float64(nil), completed...)
			sort.Float64s(sorted)
			threshold = c.cfg.SpeculationMultiplier * sorted[len(sorted)/2]
			for i := 0; i < n; i++ {
				if place[i].primaryRun && tasks[i].hasSpec && !place[i].trig {
					trigger(i, t)
				}
			}
		}
	}

	fill(0)
	makespan := 0.0
	for {
		e, ok := pop()
		if !ok {
			break
		}
		task := e.task
		p := &place[task]
		switch {
		case !e.trigger:
			if e.spec {
				if !p.specRun {
					break
				}
				p.specRun = false
				slotIdle[p.specSlot] = true
				if tasks[task].specCanWin && !p.done {
					complete(task, e.atNS, true)
				} else if !p.done {
					p.specChargedNS = tasks[task].specNS
				}
			} else {
				if !p.primaryRun {
					break
				}
				p.primaryRun = false
				slotIdle[p.slot] = true
				if !p.done {
					complete(task, e.atNS, false)
				}
			}
			if e.atNS > makespan {
				makespan = e.atNS
			}
			fill(e.atNS)
		default:
			if p.done || p.launched || !p.primaryRun {
				break
			}
			if s := idleSlot(); s >= 0 && queueIdx >= n {
				startSpec(task, s, e.atNS)
			} else {
				waiting = append(waiting, task)
			}
		}
	}
	out := make([]refCharge, n)
	for i := range place {
		out[i] = place[i].refCharge
	}
	return makespan, out
}

// linearListMakespan is the greedy list schedule by linear scan: each task,
// in policy order, goes to the earliest-available slot.
func linearListMakespan(c *Cluster, durations []float64, slots int) float64 {
	tasks := make([]virtualTask, len(durations))
	for i, d := range durations {
		tasks[i].primaryNS = d
	}
	avail := make([]float64, slots)
	for _, task := range placementOrder(c, tasks) {
		best := 0
		for s := 1; s < slots; s++ {
			if avail[s] < avail[best] {
				best = s
			}
		}
		avail[best] += durations[task]
	}
	makespan := 0.0
	for _, v := range avail {
		makespan = math.Max(makespan, v)
	}
	return makespan
}

// TestHeapSchedulerMatchesLinearReference pins the virtual scheduler (a heap
// of events over counted slots) to its linear-scan reference: identical
// makespans and per-task charged times, bit for bit, on randomized stages
// with duplicate and zero durations, both policies, executors 1-9 x cores
// 1-3, half of them with speculative chains. A stage without speculative
// chains also matches the greedy list schedule's makespan.
func TestHeapSchedulerMatchesLinearReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const trials = 2500
	for trial := 0; trial < trials; trial++ {
		n := rng.Intn(60)
		speculative := trial%2 == 1
		tasks := make([]virtualTask, n)
		durations := make([]float64, n)
		for i := range tasks {
			// Duplicates and zeros on purpose: ties are the delicate part.
			durations[i] = float64(rng.Intn(8))
			tasks[i].primaryNS = durations[i]
			if speculative {
				tasks[i].specNS = float64(rng.Intn(8))
				tasks[i].hasSpec = rng.Intn(3) > 0
				tasks[i].specCanWin = rng.Intn(3) > 0
			}
		}
		execs, cores := 1+rng.Intn(9), 1+rng.Intn(3)
		// Integral thresholds make a copy's finish tie its rival's.
		multiplier := []float64{1, 1.5, 2}[rng.Intn(3)]
		for _, policy := range []SchedulePolicy{ScheduleFIFO, ScheduleLPT} {
			// The scheduler reads only the configuration; New's trace
			// ring would dominate the test's time.
			c := &Cluster{cfg: Config{Executors: execs, CoresPerExecutor: cores, Scheduling: policy,
				Speculation: speculative, SpeculationQuantile: 0.5,
				SpeculationMultiplier: multiplier}.withDefaults()}
			slots := c.SlotCount()
			wantM, want := referenceSchedule(c, tasks, slots)
			gotM := c.virtualSchedule(tasks, slots)
			if gotM != wantM {
				t.Fatalf("trial %d policy %v: makespan %v != reference %v (tasks %+v)", trial, policy, gotM, wantM, tasks)
			}
			for i := range want {
				g := refCharge{tasks[i].primaryChargedNS, tasks[i].specChargedNS, tasks[i].specStarted, tasks[i].specWinner}
				if g != want[i] {
					t.Fatalf("trial %d policy %v task %d: charge %+v != reference %+v (tasks %+v)",
						trial, policy, i, g, want[i], tasks)
				}
			}
			if !speculative {
				if list := linearListMakespan(c, durations, slots); gotM != list {
					t.Fatalf("trial %d policy %v: makespan %v != list schedule %v (durations %v)",
						trial, policy, gotM, list, durations)
				}
			}
		}
	}
}

// makespanSink keeps the benchmarked schedule from being optimized away.
var makespanSink float64

// BenchmarkVirtualSchedule times one stage's virtual schedule without
// speculation, the path every stage of Detect takes.
func BenchmarkVirtualSchedule(b *testing.B) {
	for _, shape := range []struct{ tasks, slots int }{{8, 8}, {32, 8}, {2000, 4}} {
		b.Run(fmt.Sprintf("tasks=%d/slots=%d", shape.tasks, shape.slots), func(b *testing.B) {
			c := New(Config{Executors: shape.slots, CoresPerExecutor: 1})
			rng := rand.New(rand.NewSource(1))
			tasks := make([]virtualTask, shape.tasks)
			for i := range tasks {
				tasks[i].primaryNS = float64(1e5 + rng.Intn(1e6))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				makespanSink = c.virtualSchedule(tasks, shape.slots)
			}
		})
	}
}
