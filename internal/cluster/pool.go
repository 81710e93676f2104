package cluster

import "sync/atomic"

// This file is the engine's task launcher — the only one: a stage's tasks are
// seeded round-robin into per-worker Chase-Lev deques and executed by a fixed
// pool of Config.RealWorkers goroutines. Each worker pops its own
// deque LIFO (cache-warm work first) and steals FIFO from the others when it
// drains, so skewed stages — candgen posting lists, Cartesian shards — keep
// every core busy without any central dispatch lock.
//
// Determinism: execution order under stealing is nondeterministic, but every
// observable side effect is commit-gated (task.go) — shuffle writes are keyed
// idempotently by (map task, seq), metric deltas are buffered per attempt and
// folded only on the single winning commit, and fault/straggler injection is
// hashed from (seed, stage, task, attempt), not from arrival order. Results
// and committed counters are therefore bit-identical to the sequential
// oracle's at every pool size, which TestChaos pins across its grid.
//
// Scratch ownership: each worker checks one WorkerScratch out of the cluster
// pool for the whole stage and threads it through every chain it runs, so
// kernels reach their zero-alloc steady state per worker and two concurrent
// tasks can never alias a buffer.
//
// Paused workers: a primary chain that blocks in a simulated delay releases
// its semaphore token (tc.pause) and the pool spawns a spare, steal-only
// worker to soak up the freed capacity — otherwise a stage whose first tasks
// all stall in straggler sleeps would idle the machine exactly when the
// straggler monitor needs committed completions to compute its quantile.
type poolRun struct {
	sr      *stageRun
	deques  []*wsDeque
	workers int
	pending atomic.Int64 // tasks seeded but not yet claimed by any worker
	spares  atomic.Int64 // spare workers currently alive
}

// startPool seeds the deques and launches the worker pool for one submission
// attempt's launch set. The caller waits on sr.wg.
func (sr *stageRun) startPool(launch []int) {
	n := sr.c.cfg.RealWorkers
	if n > len(launch) {
		n = len(launch)
	}
	pr := &poolRun{sr: sr, workers: n, deques: make([]*wsDeque, n)}
	for w := 0; w < n; w++ {
		pr.deques[w] = newWSDeque((len(launch) + n - 1) / n)
	}
	// Round-robin task i to deque i%n, pushed in reverse so the owner's
	// LIFO pop yields its tasks in ascending order, which keeps trace
	// interleavings readable.
	for w := 0; w < n; w++ {
		for i := len(launch) - 1; i >= 0; i-- {
			if i%n == w {
				pr.deques[w].push(int64(launch[i]))
			}
		}
	}
	pr.pending.Store(int64(len(launch)))
	sr.pool = pr
	for w := 0; w < n; w++ {
		sr.wg.Add(1)
		go pr.worker(w)
	}
}

// worker is one pool member: it holds a semaphore token, owns deque w and a
// WorkerScratch, and runs primary chains until every deque is drained.
func (pr *poolRun) worker(w int) {
	defer pr.sr.wg.Done()
	pr.sr.sem <- struct{}{}
	defer func() { <-pr.sr.sem }()
	sc := pr.sr.c.scratch.get()
	defer pr.sr.c.scratch.put(sc)
	for {
		task, ok := pr.claim(w)
		if !ok {
			return
		}
		pr.pending.Add(-1)
		pr.sr.runChain(int(task), false, sc)
	}
}

// claim returns the next task for worker w: its own deque's bottom first,
// then a steal sweep over the other deques. It returns false only after a
// full sweep finds every deque empty with no contended CAS — a lost steal
// race means another worker claimed that task, never that it was dropped.
func (pr *poolRun) claim(w int) (int64, bool) {
	if v, ok := pr.deques[w].pop(); ok {
		return v, true
	}
	for {
		retry := false
		for i := 1; i <= len(pr.deques); i++ {
			v, ok, again := pr.deques[(w+i)%len(pr.deques)].steal()
			if ok {
				return v, true
			}
			retry = retry || again
		}
		if !retry {
			return 0, false
		}
	}
}

// claimSteal is the spare workers' claim: steal-only (spares own no deque,
// and pop is owner-only), same clean-sweep termination.
func (pr *poolRun) claimSteal() (int64, bool) {
	for {
		retry := false
		for _, d := range pr.deques {
			v, ok, again := d.steal()
			if ok {
				return v, true
			}
			retry = retry || again
		}
		if !retry {
			return 0, false
		}
	}
}

// ensureSpare spawns a steal-only spare worker if unclaimed tasks remain and
// the spare budget (one per pool worker) allows. Called from tc.pause, i.e.
// from inside a running chain, so sr.wg is necessarily non-zero and the Add
// cannot race wg.Wait.
func (pr *poolRun) ensureSpare() {
	for {
		s := pr.spares.Load()
		if s >= int64(pr.workers) || pr.pending.Load() <= 0 {
			return
		}
		if pr.spares.CompareAndSwap(s, s+1) {
			pr.sr.wg.Add(1)
			go pr.spare()
			return
		}
	}
}

// spare soaks up capacity freed by paused primaries: it takes the released
// semaphore token, steals until the deques drain, then retires.
func (pr *poolRun) spare() {
	defer pr.sr.wg.Done()
	defer pr.spares.Add(-1)
	pr.sr.sem <- struct{}{}
	defer func() { <-pr.sr.sem }()
	sc := pr.sr.c.scratch.get()
	defer pr.sr.c.scratch.put(sc)
	for {
		task, ok := pr.claimSteal()
		if !ok {
			return
		}
		pr.pending.Add(-1)
		pr.sr.runChain(int(task), false, sc)
	}
}
