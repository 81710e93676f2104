package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestPoolSizeInvariant runs the same chaos program on a 1-worker pool (every
// stage serialized, nothing to steal) and a 3-worker pool and compares them
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
	// Workers (2) plus spares (cap 2) give concurrency 4: the serial bound
	// is 8x20ms = 160ms, the expected overlap ~2x20ms-wave = 40ms. Assert
	// well under serial with slack for scheduler noise.
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
