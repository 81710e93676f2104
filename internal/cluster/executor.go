package cluster

import (
	"fmt"
	"math/rand"
)

// This file models the executor lifecycle: deterministic executor-kill
// injection at stage submission points, loss handling (dropping the dead
// executor's committed shuffle outputs and cached partitions), and the
// blacklist policy that keeps repeatedly-failing executors out of the slot
// pool with exponential backoff before re-admission.
//
// Executor placement is deterministic and independent of real execution
// timing: each task chain is hashed onto the stage's live-executor list, so
// a given (seed, stage, task) always lands on the same host and killing that
// host always invalidates the same outputs. Speculative duplicate chains are
// offset to a different live executor when one exists — relaunching on the
// same sick host would defeat the mitigation.

// executorMeta tracks one executor's failure history and availability. The
// zero value is a healthy executor.
type executorMeta struct {
	// downUntil is the stage counter at which the executor rejoins the
	// pool: it is out of service for every stage submitted while
	// stageCounter < downUntil.
	downUntil int
	// kills is the lifetime executor-loss count; it drives the blacklist
	// decision and the exponential backoff length.
	kills int
}

// liveExecutorsLocked returns the executors in service at the given stage
// counter, in ascending ID order. Callers hold c.mu.
func (c *Cluster) liveExecutorsLocked(stageID int) []int {
	live := make([]int, 0, len(c.execs))
	for e := range c.execs {
		if c.execs[e].downUntil <= stageID {
			live = append(live, e)
		}
	}
	return live
}

// LiveExecutors returns the executors currently in service (not lost, not
// serving a blacklist backoff), in ascending ID order.
func (c *Cluster) LiveExecutors() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveExecutorsLocked(c.stageCounter)
}

// FailExecutor kills executor e immediately: its committed shuffle map
// outputs and cached partitions are dropped, and it leaves the slot pool
// until it recovers (or, past the blacklist threshold, until its backoff
// expires). It returns false when e is out of range, already down, or the
// last live executor — the cluster never kills its final host, mirroring the
// driver's own survival. Deterministic chaos runs use ExecutorFailureRate
// instead; this entry point serves tests and operational tooling.
func (c *Cluster) FailExecutor(e int) bool {
	c.mu.Lock()
	stageID := c.stageCounter
	if e < 0 || e >= len(c.execs) || c.execs[e].downUntil > stageID {
		c.mu.Unlock()
		return false
	}
	if len(c.liveExecutorsLocked(stageID)) <= 1 {
		c.mu.Unlock()
		return false
	}
	c.mu.Unlock()
	c.failExecutor(e, stageID)
	return true
}

// injectExecutorFailures is called at every stage submission (and
// resubmission): it draws one deterministic kill decision per live executor
// from a stream keyed by (seed, stage, resubmission, executor), applies the
// losses, and returns the surviving live-executor list the stage attempt
// will schedule onto. The last live executor is never killed.
func (c *Cluster) injectExecutorFailures(stageID, resubmit int) []int {
	c.mu.Lock()
	live := c.liveExecutorsLocked(stageID)
	c.mu.Unlock()
	if c.cfg.ExecutorFailureRate <= 0 {
		return live
	}
	var kills []int
	remaining := len(live)
	for _, e := range live {
		if remaining <= 1 {
			break
		}
		h := drawHash("exec/", "", c.cfg.Seed, int64(stageID), int64(resubmit), int64(e))
		rng := rand.New(rand.NewSource(int64(h)))
		if rng.Float64() < c.cfg.ExecutorFailureRate {
			kills = append(kills, e)
			remaining--
		}
	}
	for _, e := range kills {
		c.failExecutor(e, stageID)
	}
	if len(kills) == 0 {
		return live
	}
	c.mu.Lock()
	live = c.liveExecutorsLocked(stageID)
	c.mu.Unlock()
	return live
}

// failExecutor records executor e's loss at stage counter stageID, drops its
// hosted state, and applies the blacklist policy. An executor that has now
// failed BlacklistAfterFailures or more times is blacklisted: its downtime
// grows as BlacklistBackoffStages << (failures - threshold), capped, before
// it is re-admitted to the pool.
func (c *Cluster) failExecutor(e, stageID int) {
	c.mu.Lock()
	m := &c.execs[e]
	m.kills++
	kills := m.kills
	down := c.cfg.ExecutorRecoveryStages
	blacklisted := false
	if kills >= c.cfg.BlacklistAfterFailures {
		over := kills - c.cfg.BlacklistAfterFailures
		if over > 8 {
			over = 8 // cap the shift; beyond this the executor is effectively gone
		}
		down += c.cfg.BlacklistBackoffStages << over
		blacklisted = true
	}
	m.downUntil = stageID + down
	virtNow := c.virtualNS
	c.mu.Unlock()

	lostOutputs := c.shuffles.invalidateExecutor(e)
	lostBlocks := c.blocks.InvalidateExecutor(e)
	c.metrics.ExecutorFailures.Add(1)
	c.metrics.MapOutputsLost.Add(int64(lostOutputs))
	if c.tracer.Enabled() {
		c.tracer.Emit(Event{Kind: EventExecutorLost, StageID: stageID,
			Task: -1, Attempt: -1, Executor: e, VirtualNS: virtNow,
			Detail: fmt.Sprintf("%d map outputs, %d cached partitions lost", lostOutputs, lostBlocks)})
	}
	if blacklisted {
		c.metrics.ExecutorsBlacklisted.Add(1)
		if c.tracer.Enabled() {
			c.tracer.Emit(Event{Kind: EventExecutorBlacklisted, StageID: stageID,
				Task: -1, Attempt: -1, Executor: e,
				Detail: fmt.Sprintf("%d failures: off duty for %d stages", kills, down)})
		}
	}
}

// hostFor deterministically places a task chain onto one of the stage's live
// executors. The primary chain hashes (seed, stage, task) onto the list; a
// speculative duplicate takes the next live executor so the copy runs on a
// different host whenever more than one is alive.
func (c *Cluster) hostFor(live []int, stageID, task int, speculative bool) int {
	if len(live) == 0 {
		return -1
	}
	h := drawHash("host/", "", c.cfg.Seed, int64(stageID), int64(task))
	i := int(h % uint64(len(live)))
	if speculative && len(live) > 1 {
		i = (i + 1) % len(live)
	}
	return live[i]
}
