package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolSizeInvariant runs the same chaos program on a 1-worker pool (every
// stage serialized) and a 3-worker pool and compares them
// directly, counter for counter: final state, published results, and every
// committed work counter must match, not just both match the oracle. The
// speculative counters, the attempts launched and the virtual clock — the
// total and every stage's makespan and compute — must also repeat across two
// 1-worker runs and match the 3-worker run: a task's virtual time is the
// work it counted, and speculation is decided from it, not by a real race.
func TestPoolSizeInvariant(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		prog := genChaosProgram(seed * 104729)
		base := chaosConfig(seed, 4, 0.3, 0, true, true, 0)

		base.RealWorkers = 1
		ref := New(base)
		refState, refSums, refErr := runChaosProgram(ref, prog)
		ref.Close()
		again := New(base)
		_, _, againErr := runChaosProgram(again, prog)
		again.Close()
		if (refErr == nil) != (againErr == nil) {
			t.Fatalf("seed %d: error divergence across two runs: %v vs %v", seed, refErr, againErr)
		}

		cfg := base
		cfg.RealWorkers = 3
		pool := New(cfg)
		poolState, poolSums, poolErr := runChaosProgram(pool, prog)
		pool.Close()

		if (refErr == nil) != (poolErr == nil) {
			t.Fatalf("seed %d: error divergence: 1 worker=%v 3 workers=%v", seed, refErr, poolErr)
		}
		if refErr != nil {
			continue
		}
		if len(poolState) != len(refState) {
			t.Fatalf("seed %d: partitions %d vs %d", seed, len(poolState), len(refState))
		}
		for i := range refState {
			if !int64sEqual(poolState[i], refState[i]) {
				t.Errorf("seed %d: partition %d = %v, want %v", seed, i, poolState[i], refState[i])
			}
		}
		if !int64sEqual(poolSums, refSums) {
			t.Errorf("seed %d: published results %v, want %v", seed, poolSums, refSums)
		}
		rm, pm := ref.Metrics().Snapshot(), pool.Metrics().Snapshot()
		if pm.RecordsProcessed != rm.RecordsProcessed ||
			pm.Comparisons != rm.Comparisons ||
			pm.ShuffleRecordsWritten != rm.ShuffleRecordsWritten ||
			pm.ShuffleBytesWritten != rm.ShuffleBytesWritten ||
			pm.ShuffleBytesRead != rm.ShuffleBytesRead {
			t.Errorf("seed %d: committed counters diverged:\n  1 worker:  %+v\n  3 workers: %+v", seed, rm, pm)
		}
		am := again.Metrics().Snapshot()
		for _, m := range []MetricsSnapshot{am, pm} {
			if m.SpeculativeTasksLaunched != rm.SpeculativeTasksLaunched ||
				m.SpeculativeWins != rm.SpeculativeWins ||
				m.TasksLaunched != rm.TasksLaunched {
				t.Errorf("seed %d: speculation counters diverged: launched %d/%d, wins %d/%d, tasks %d/%d",
					seed, m.SpeculativeTasksLaunched, rm.SpeculativeTasksLaunched,
					m.SpeculativeWins, rm.SpeculativeWins, m.TasksLaunched, rm.TasksLaunched)
			}
		}
		for _, c := range []*Cluster{again, pool} {
			if got, want := c.VirtualElapsed(), ref.VirtualElapsed(); got != want {
				t.Errorf("seed %d: virtual elapsed %v, want %v", seed, got, want)
			}
			got, want := c.StageHistory(), ref.StageHistory()
			if len(got) != len(want) {
				t.Fatalf("seed %d: %d stages, want %d", seed, len(got), len(want))
			}
			for i, g := range got {
				w := want[i]
				if g.Name != w.Name || g.VirtualDuration != w.VirtualDuration || g.ComputeDuration != w.ComputeDuration {
					t.Errorf("seed %d: stage %d %s: virtual %v compute %v, want %s: virtual %v compute %v",
						seed, i, g.Name, g.VirtualDuration, g.ComputeDuration, w.Name, w.VirtualDuration, w.ComputeDuration)
				}
			}
		}
	}
}

// TestPoolRunsEachTaskOnce pins the shared cursor's claim contract at the
// pool's edge cases — fewer tasks than workers, exactly as many, one more
// than a multiple, and many: every task function runs exactly once and every
// task commits. Every third task sleeps, so workers claim out of step.
func TestPoolRunsEachTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		seen := map[int]bool{}
		for _, tasks := range []int{1, workers - 1, workers, 4*workers + 1, 257} {
			if tasks < 1 || seen[tasks] {
				continue
			}
			seen[tasks] = true
			t.Run(fmt.Sprintf("workers=%d/tasks=%d", workers, tasks), func(t *testing.T) {
				c := New(Config{Executors: 2, RealWorkers: workers})
				defer c.Close()
				runs := make([]atomic.Int32, tasks)
				_, err := c.RunStage("once", tasks, func(tc *TaskContext) error {
					runs[tc.Task()].Add(1)
					if tc.Task()%3 == 0 {
						time.Sleep(100 * time.Microsecond)
					}
					tc.AddRecords(1)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range runs {
					if n := runs[i].Load(); n != 1 {
						t.Errorf("task %d ran %d times, want 1", i, n)
					}
				}
				if got := c.Metrics().Snapshot().RecordsProcessed; got != int64(tasks) {
					t.Errorf("committed RecordsProcessed = %d, want %d", got, tasks)
				}
			})
		}
	}
}

// TestPoolNeverExceedsRealWorkers pins the pool's bound: at no instant may
// more than RealWorkers task bodies be working, even with stragglers
// injected and speculation on. The work is a plain sleep, which occupies a
// worker without burning a core.
func TestPoolNeverExceedsRealWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := New(Config{Executors: 2, RealWorkers: workers, StragglerRate: 0.5, Speculation: true})
			defer c.Close()
			var computing, peakComputing atomic.Int64
			_, err := c.RunStage("bounded", 48, func(tc *TaskContext) error {
				v := computing.Add(1)
				for p := peakComputing.Load(); v > p && !peakComputing.CompareAndSwap(p, v); p = peakComputing.Load() {
				}
				time.Sleep(200 * time.Microsecond)
				computing.Add(-1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if p := peakComputing.Load(); p > int64(workers) {
				t.Fatalf("%d chains computed at once, want at most RealWorkers = %d", p, workers)
			}
		})
	}
}

// TestPoolScratchIsolation proves two pool workers never alias a
// WorkerScratch: two tasks rendezvous mid-flight (so both are provably
// concurrent), each fills its scratch buffer with a task-unique marker while
// holding the barrier, and then checks its buffer was not clobbered by the
// other task. The scratch pointers themselves must differ.
func TestPoolScratchIsolation(t *testing.T) {
	c := New(Config{Executors: 1, RealWorkers: 2})
	defer c.Close()

	var mu sync.Mutex
	scratches := make(map[int]*WorkerScratch)
	var barrier sync.WaitGroup
	barrier.Add(2)

	_, err := c.RunStage("isolation", 2, func(tc *TaskContext) error {
		sc := tc.Scratch()
		mu.Lock()
		scratches[tc.Task()] = sc
		mu.Unlock()

		marker := float64(1000 + tc.Task())
		buf := sc.Float64s(256)
		for i := range buf {
			buf[i] = marker
		}
		// Both tasks hold filled buffers here; if the two workers shared a
		// scratch, one marker would overwrite the other.
		barrier.Done()
		barrier.Wait()
		for i := range buf {
			if buf[i] != marker {
				return errors.New("scratch buffer clobbered by concurrent task")
			}
		}
		ids := sc.Int32s(64)
		for i := range ids {
			ids[i] = int32(tc.Task())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(scratches) != 2 {
		t.Fatalf("recorded %d scratches, want 2", len(scratches))
	}
	if scratches[0] == scratches[1] {
		t.Fatalf("both tasks received the same WorkerScratch %p", scratches[0])
	}
}

// TestPoolWorkersStopOnErrorPaths: RunStage's error exits (task exhaustion,
// here with stragglers injected and speculation on) must leave no pool
// worker running. Run under -race, repeated failing stages would otherwise
// accumulate leaked goroutines.
func TestPoolWorkersStopOnErrorPaths(t *testing.T) {
	boom := errors.New("boom")
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		c := New(Config{Executors: 4, Speculation: true, MaxTaskRetries: 1,
			SpeculationQuantile: 0.1,
			RealWorkers:         3,
			StragglerRate:       0.3})
		_, err := c.RunStage("failing", 8, func(tc *TaskContext) error {
			if tc.Task()%2 == 1 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
		c.Close()
	}
	leaked := true
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			leaked = false
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if leaked {
		t.Errorf("goroutine count %d stayed above baseline %d: worker leak",
			runtime.NumGoroutine(), before)
	}
}

// TestClosedClusterFailsStages pins Close: every stage submitted after it
// fails at once with ErrClosed, without running a task, and Closed reports
// it.
func TestClosedClusterFailsStages(t *testing.T) {
	c := New(Config{Executors: 2})
	if c.Closed() {
		t.Fatal("new cluster reports closed")
	}
	c.Close()
	if !c.Closed() {
		t.Fatal("closed cluster reports open")
	}
	ran := false
	_, err := c.RunStage("after-close", 4, func(tc *TaskContext) error {
		ran = true
		return nil
	})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if ran {
		t.Error("a task ran on a closed cluster")
	}
	if n := c.Metrics().Snapshot().StagesRun; n != 0 {
		t.Errorf("StagesRun = %d after a refused stage, want 0", n)
	}
}

// TestScratchPoolRecycles pins that WorkerScratch instances checked back in
// are reused rather than reallocated: a second stage on the same cluster
// must see warmed buffers (capacity retained from the first stage).
func TestScratchPoolRecycles(t *testing.T) {
	c := New(Config{Executors: 1, RealWorkers: 1})
	defer c.Close()
	var firstPtr *WorkerScratch
	_, err := c.RunStage("warm", 1, func(tc *TaskContext) error {
		firstPtr = tc.Scratch()
		firstPtr.Float64s(4096)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var secondPtr *WorkerScratch
	var warmedCap int
	_, err = c.RunStage("reuse", 1, func(tc *TaskContext) error {
		secondPtr = tc.Scratch()
		warmedCap = cap(secondPtr.Float64s(1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if secondPtr != firstPtr {
		t.Fatalf("second stage got scratch %p, want recycled %p", secondPtr, firstPtr)
	}
	if warmedCap < 4096 {
		t.Fatalf("recycled scratch capacity = %d, want >= 4096 from the first stage", warmedCap)
	}
}
