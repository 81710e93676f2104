package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolSizeInvariant runs the same chaos program on a 1-worker pool (every
// stage serialized) and a 3-worker pool and compares them
// directly, counter for counter: final state, published results, and every
// committed work counter must match, not just both match the oracle.
func TestPoolSizeInvariant(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		prog := genChaosProgram(seed * 104729)
		base := chaosConfig(seed, 4, 0.3, 0, true, true, 0)

		base.RealWorkers = 1
		ref := New(base)
		refState, refSums, refErr := runChaosProgram(ref, prog)
		ref.Close()

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
	}
}

// TestPoolRunsEachTaskOnce pins the shared cursor's claim contract at the
// pool's edge cases — fewer tasks than workers, exactly as many, one more
// than a multiple, and many: every task function runs exactly once and every
// task commits. Every third task sleeps in tc.Delay, so spares start and claim
// from the same cursor as the workers they stand in for.
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
						tc.Delay(time.Millisecond, 0)
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

// TestPoolNeverExceedsRealWorkers pins the semaphore bound with spares live:
// half the tasks sleep in tc.Delay between two stretches of work, so paused
// chains hand their tokens to spares and more chains are in flight than
// RealWorkers, yet at no instant may more than RealWorkers of them be
// working outside a Delay. The work is a plain sleep, which holds the token
// without burning a core.
func TestPoolNeverExceedsRealWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := New(Config{Executors: 2, RealWorkers: workers})
			defer c.Close()
			var computing, inFlight, peakComputing, peakInFlight atomic.Int64
			raise := func(peak *atomic.Int64, v int64) {
				for p := peak.Load(); v > p && !peak.CompareAndSwap(p, v); p = peak.Load() {
				}
			}
			work := func() {
				raise(&peakComputing, computing.Add(1))
				time.Sleep(200 * time.Microsecond)
				computing.Add(-1)
			}
			_, err := c.RunStage("bounded", 48, func(tc *TaskContext) error {
				raise(&peakInFlight, inFlight.Add(1))
				defer inFlight.Add(-1)
				work()
				if tc.Task()%2 == 0 {
					tc.Delay(2*time.Millisecond, 0)
				}
				work()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if p := peakInFlight.Load(); p <= int64(workers) {
				t.Fatalf("at most %d chains in flight: no spare ran, the bound went untested", p)
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

// TestPoolSpareWorkers pins the pause handoff: when a pool worker's
// task blocks in a simulated delay it releases its token and a spare worker
// must pick up the remaining tasks, so a stage of blocking tasks overlaps
// its sleeps instead of serializing them.
func TestPoolSpareWorkers(t *testing.T) {
	const (
		tasks = 8
		delay = 20 * time.Millisecond
	)
	c := New(Config{Executors: 1, RealWorkers: 2})
	defer c.Close()
	start := time.Now()
	_, err := c.RunStage("sleepy", tasks, func(tc *TaskContext) error {
		tc.Delay(delay, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Every sleeping task lends its token to a spare, so all 8 sleeps can
	// overlap: the serial bound is 8x20ms = 160ms, the expected time about
	// one 20ms wave. Assert well under serial with slack for scheduler noise.
	if elapsed >= tasks*delay {
		t.Fatalf("stage took %v, want overlap below the %v serial bound", elapsed, tasks*delay)
	}
}

// TestCloseWakesInflightDelays pins the shared pool context: Close must
// cancel attempt contexts so chains blocked in long straggler delays wake
// immediately instead of holding goroutines (and the caller) for the full
// simulated delay.
func TestCloseWakesInflightDelays(t *testing.T) {
	c := New(Config{
		Executors:            1,
		RealWorkers:          2,
		StragglerRate:        1, // every attempt blocks...
		StragglerRealDelayMS: 5000,
		MaxTaskRetries:       1,
	})
	done := make(chan error, 1)
	go func() {
		_, err := c.RunStage("stuck", 2, func(tc *TaskContext) error { return nil })
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the chains enter their delay
	start := time.Now()
	c.Close()
	select {
	case <-done:
		// The stage returned promptly (success or fail-fast both fine);
		// the point is that Close unblocked the 5s sleeps.
		if waited := time.Since(start); waited > 2*time.Second {
			t.Errorf("stage took %v after Close", waited)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("stage still blocked 3s after Close")
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
