package cluster

import (
	"testing"
	"testing/quick"
)

// TestMakespanBoundsProperty: for any task durations and slot count, the
// scheduled makespan is at least the longest task and the average load,
// and at most the total work.
func TestMakespanBoundsProperty(t *testing.T) {
	f := func(raw []uint16, execs uint8) bool {
		durations := make([]float64, len(raw))
		var total, longest float64
		for i, r := range raw {
			durations[i] = float64(r)
			total += durations[i]
			if durations[i] > longest {
				longest = durations[i]
			}
		}
		slots := int(execs)%8 + 1
		for _, policy := range []SchedulePolicy{ScheduleFIFO, ScheduleLPT} {
			c := New(Config{Executors: slots, CoresPerExecutor: 1, Scheduling: policy})
			m := schedule(c, durations)
			if m < longest-1e-9 {
				return false
			}
			if m < total/float64(slots)-1e-9 {
				return false
			}
			if m > total+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGrahamBoundProperty: any greedy list schedule (FIFO or LPT) satisfies
// Graham's bound makespan <= total/m + longest, which also bounds it by
// twice the trivial lower bound max(longest, total/m).
func TestGrahamBoundProperty(t *testing.T) {
	f := func(raw []uint16, execs uint8) bool {
		if len(raw) == 0 {
			return true
		}
		durations := make([]float64, len(raw))
		var total, longest float64
		for i, r := range raw {
			durations[i] = float64(r) + 1 // avoid all-zero degeneracy
			total += durations[i]
			if durations[i] > longest {
				longest = durations[i]
			}
		}
		m := float64(int(execs)%8 + 1)
		for _, policy := range []SchedulePolicy{ScheduleFIFO, ScheduleLPT} {
			c := New(Config{Executors: int(m), CoresPerExecutor: 1, Scheduling: policy})
			if schedule(c, durations) > total/m+longest+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFailureInjectionRateProperty: observed failure frequency tracks the
// configured rate across many tasks.
func TestFailureInjectionRateProperty(t *testing.T) {
	c := New(Config{FailureRate: 0.25, MaxTaskRetries: 50, Seed: 99})
	stats, err := c.RunStage("many", 2000, func(tc *TaskContext) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(stats.Failures) / float64(stats.Attempts)
	if rate < 0.18 || rate > 0.32 {
		t.Errorf("observed failure rate %.3f far from configured 0.25", rate)
	}
}
