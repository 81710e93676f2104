package cluster

import (
	"runtime"
	"sync/atomic"
)

// This file is the engine's task launcher — the only one. A submission
// attempt's launch list is fixed before any task runs and no task spawns a
// task, so the pool is one atomic cursor over that list: each worker takes a
// semaphore token and a WorkerScratch, then claims launch[next.Add(1)-1]
// until the cursor passes the end. There is one claim path, and tasks start
// in ascending order, which keeps trace interleavings readable.
//
// Determinism: which worker runs which task is nondeterministic, but every
// observable side effect is commit-gated (task.go) — shuffle writes are keyed
// idempotently by (map task, seq), metric deltas are buffered per attempt and
// folded only on the single winning commit, and fault/straggler injection is
// hashed from (seed, stage, task, attempt), not from arrival order. Results
// and committed counters are therefore bit-identical to the sequential
// oracle's at every pool size, which TestChaos pins across its grid.
//
// Scratch ownership: each worker checks one WorkerScratch out of the cluster
// pool for its whole life and threads it through every chain it runs, so
// kernels reach their zero-alloc steady state per worker and two concurrent
// tasks can never alias a buffer.
//
// Paused workers: a primary chain that blocks in a simulated delay releases
// its semaphore token (tc.pause) and, while tasks are still unclaimed, the
// pool starts a spare running the same loop to take the freed token —
// otherwise a stage whose first tasks all stall in straggler sleeps would
// idle the machine exactly when the straggler monitor needs committed
// completions to compute its quantile. Spares are not capped: the RealWorkers
// tokens alone bound how many chains compute at once.
type poolRun struct {
	sr     *stageRun
	launch []int
	next   atomic.Int64 // index in launch of the next unclaimed task
}

// startPool launches min(RealWorkers, len(launch)) workers over one
// submission attempt's launch list. The caller waits on sr.wg.
func (sr *stageRun) startPool(launch []int) {
	pr := &poolRun{sr: sr, launch: launch}
	sr.pool = pr
	n := min(sr.c.cfg.RealWorkers, len(launch))
	sr.wg.Add(n)
	for w := 0; w < n; w++ {
		go pr.worker()
	}
}

// worker runs primary chains for claimed tasks until the cursor passes the
// end of the launch list, holding a semaphore token outside paused delays.
func (pr *poolRun) worker() {
	defer pr.sr.wg.Done()
	pr.sr.sem <- struct{}{}
	defer func() { <-pr.sr.sem }()
	sc := pr.sr.c.scratch.get()
	defer pr.sr.c.scratch.put(sc)
	for {
		i := pr.next.Add(1) - 1
		if i >= int64(len(pr.launch)) {
			return
		}
		pr.sr.runChain(pr.launch[i], false, sc)
		if pr.sr.c.cfg.Speculation {
			// Let the straggler monitor run between tasks. With one P, a
			// worker claiming task after task keeps it off the CPU until
			// async preemption (~10 ms), by which time a straggler's delay
			// is long over and nothing is left to speculate.
			runtime.Gosched()
		}
	}
}

// ensureSpare starts a spare worker if tasks are still unclaimed. Called from
// tc.pause, i.e. from inside a running chain, so sr.wg is non-zero and the
// Add cannot race wg.Wait.
func (pr *poolRun) ensureSpare() {
	if pr.next.Load() < int64(len(pr.launch)) {
		pr.sr.wg.Add(1)
		go pr.worker()
	}
}
