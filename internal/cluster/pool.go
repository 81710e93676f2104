package cluster

import (
	"sync"
	"sync/atomic"
)

// This file is the engine's task launcher — the only one. A submission
// attempt's launch list is fixed before any task runs and no task spawns a
// task, so the pool is one atomic cursor over that list: min(RealWorkers,
// tasks) workers each take a WorkerScratch, then claim launch[next.Add(1)-1]
// until the cursor passes the end. There is one claim path, tasks start in
// ascending order, and at most RealWorkers task bodies run at once because
// only that many workers exist. Each task's chain runs exactly once: no task
// body sleeps and no speculative copy runs a body (speculation.go decides
// copies in virtual time after the pool has drained).
//
// Determinism: which worker runs which task is nondeterministic, but every
// observable side effect is buffered per attempt and committed after the
// pool has drained, in task order (speculation.go), and fault and straggler
// injection is hashed from (seed, stage, task, attempt), not from arrival
// order. Results and committed counters are therefore bit-identical to the
// sequential oracle's at every pool size, which TestChaos pins across its
// grid.
//
// Scratch ownership: each worker checks one WorkerScratch out of the cluster
// pool for its whole life and threads it through every chain it runs, so
// kernels reach their zero-alloc steady state per worker and two concurrent
// tasks can never alias a buffer.

// runPool runs the chains of one submission attempt's launch list and
// returns when every chain has finished.
func (sr *stageRun) runPool(launch []int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	n := min(sr.c.cfg.RealWorkers, len(launch))
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			sc := sr.c.scratch.get()
			defer sr.c.scratch.put(sc)
			for i := next.Add(1) - 1; i < int64(len(launch)); i = next.Add(1) - 1 {
				task := launch[i]
				sr.chains[task] = sr.runChain(task, sc)
			}
		}()
	}
	wg.Wait()
}
