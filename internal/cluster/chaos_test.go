package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// The chaos harness: seeded randomized stage programs run on the cluster
// under every combination of {fault injection, injected stragglers,
// speculation on/off, executor count, pool size} and must produce partition
// contents, published results, and committed counters bit-identical to a
// sequential oracle that never retries, never speculates, and never races.
// This is the same differential discipline the RDD layer's differential
// suite applies to operator fusion, aimed here at attempt races: any path by
// which a losing or failed attempt leaks a shuffle write, a result, or a
// counter delta shows up as a diff against the oracle.
//
// Determinism rests on three engine properties the harness exercises
// together: commit-on-success side effects (task.go), idempotent
// (mapTask, seq)-keyed shuffle buckets fetched in sorted order (shuffle.go),
// and first-completion-wins commits under speculation (speculation.go).

// chaosOp is one stage (or map+reduce stage pair) of a chaos program.
type chaosOp struct {
	kind     int // 0 = map, 1 = shuffle
	mulA     int64
	addB     int64
	newParts int
}

// chaosProgram is a randomized pipeline over [][]int64 partitions.
type chaosProgram struct {
	initial [][]int64
	ops     []chaosOp
}

func genChaosProgram(seed int64) chaosProgram {
	rng := rand.New(rand.NewSource(seed))
	parts := 2 + rng.Intn(5)
	initial := make([][]int64, parts)
	for i := range initial {
		vals := make([]int64, rng.Intn(9))
		for j := range vals {
			vals[j] = rng.Int63n(1000)
		}
		initial[i] = vals
	}
	ops := make([]chaosOp, 3+rng.Intn(3))
	for i := range ops {
		switch rng.Intn(2) {
		case 0:
			ops[i] = chaosOp{kind: 0, mulA: 1 + rng.Int63n(9), addB: rng.Int63n(100)}
		default:
			ops[i] = chaosOp{kind: 1, newParts: 2 + rng.Intn(5)}
		}
	}
	return chaosProgram{initial: initial, ops: ops}
}

// chaosExpect is the oracle's prediction of the committed counters.
type chaosExpect struct {
	records      int64
	comparisons  int64
	shufRecords  int64
	shufWritten  int64
	shufRead     int64
	finalState   [][]int64
	finalResults []int64 // per final partition: checksum published by the last map
}

// chaosOracle executes the program sequentially: single attempt per task, no
// failures, no duplicates. Shuffle reduce partitions concatenate map-output
// buckets in (map task, write seq) order — exactly the engine's sorted fetch.
func chaosOracle(p chaosProgram) chaosExpect {
	var e chaosExpect
	state := make([][]int64, len(p.initial))
	for i, part := range p.initial {
		state[i] = append([]int64(nil), part...)
	}
	for _, op := range p.ops {
		switch op.kind {
		case 0:
			for i, part := range state {
				e.records += int64(len(part))
				e.comparisons += int64(len(part))*2 + 1
				out := make([]int64, len(part))
				for j, v := range part {
					out[j] = v*op.mulA + op.addB
				}
				state[i] = out
			}
		case 1:
			// Map side: partition values by v mod newParts; each map task
			// writes its non-empty buckets in bucket order, so within one
			// map task seq increases with the bucket index.
			next := make([][]int64, op.newParts)
			for _, part := range state { // map tasks in task order
				e.records += int64(len(part))
				buckets := make([][]int64, op.newParts)
				for _, v := range part {
					b := int(v % int64(op.newParts))
					buckets[b] = append(buckets[b], v)
				}
				for b, bucket := range buckets {
					if len(bucket) == 0 {
						continue
					}
					e.shufRecords += int64(len(bucket))
					e.shufWritten += int64(len(bucket)) * 8
					next[b] = append(next[b], bucket...)
				}
			}
			for _, part := range next {
				e.records += int64(len(part))
				e.shufRead += int64(len(part)) * 8
			}
			state = next
		}
	}
	e.finalState = state
	e.finalResults = make([]int64, len(state))
	for i, part := range state {
		var sum int64
		for _, v := range part {
			sum += v*31 + 7
		}
		e.finalResults[i] = sum
	}
	return e
}

// runChaosProgram executes the program on a real cluster, returning the
// final partition state and the per-partition checksum published through the
// commit-gated result path.
func runChaosProgram(c *Cluster, p chaosProgram) ([][]int64, []int64, error) {
	state := make([][]int64, len(p.initial))
	for i, part := range p.initial {
		state[i] = append([]int64(nil), part...)
	}
	for oi, op := range p.ops {
		switch op.kind {
		case 0:
			in := state
			results, _, err := c.RunStageResults(fmt.Sprintf("chaos.map#%d", oi), len(in), func(tc *TaskContext) error {
				part := in[tc.Task()]
				tc.AddRecords(int64(len(part)))
				tc.AddComparisons(int64(len(part))*2 + 1)
				out := make([]int64, len(part))
				for j, v := range part {
					out[j] = v*op.mulA + op.addB
				}
				tc.PublishResult(out)
				return nil
			})
			if err != nil {
				return nil, nil, err
			}
			for i, r := range results {
				state[i] = r.([]int64)
			}
		case 1:
			in := state
			shID := c.Shuffles().Register()
			// The codec lets the memory-budget tiers spill these blocks;
			// without budgets it is inert.
			c.Shuffles().SetCodec(shID, GobCodec[[]int64]())
			// mapOutput writes one parent partition's buckets under an
			// explicit map-task identity so executor-loss recomputation
			// reproduces the original block keys.
			mapOutput := func(tc *TaskContext, part int) error {
				vals := in[part]
				tc.AddRecords(int64(len(vals)))
				buckets := make([][]int64, op.newParts)
				for _, v := range vals {
					b := int(v % int64(op.newParts))
					buckets[b] = append(buckets[b], v)
				}
				for b, bucket := range buckets {
					if len(bucket) == 0 {
						continue
					}
					tc.WriteShuffleAs(shID, b, part, bucket, int64(len(bucket)), int64(len(bucket))*8)
				}
				return nil
			}
			c.Shuffles().SetRecompute(shID, func(lost []int) error {
				_, rerr := c.RunRecoveryStage(fmt.Sprintf("chaos.shufmap#%d.recompute", oi),
					len(lost), func(tc *TaskContext) error {
						return mapOutput(tc, lost[tc.Task()])
					})
				return rerr
			})
			_, err := c.RunStage(fmt.Sprintf("chaos.shufmap#%d", oi), len(in), func(tc *TaskContext) error {
				return mapOutput(tc, tc.Task())
			})
			if err != nil {
				return nil, nil, err
			}
			c.Shuffles().MarkDone(shID)
			results, _, err := c.RunStageResults(fmt.Sprintf("chaos.reduce#%d", oi), op.newParts, func(tc *TaskContext) error {
				blocks, ferr := tc.FetchShuffle(shID, tc.Task())
				if ferr != nil {
					return ferr
				}
				var out []int64
				for _, blk := range blocks {
					out = append(out, blk.([]int64)...)
				}
				tc.AddRecords(int64(len(out)))
				tc.PublishResult(out)
				return nil
			})
			if err != nil {
				return nil, nil, err
			}
			state = make([][]int64, op.newParts)
			for i, r := range results {
				state[i], _ = r.([]int64)
			}
			c.Shuffles().Unregister(shID)
		}
	}
	results, _, err := c.RunStageResults("chaos.checksum", len(state), func(tc *TaskContext) error {
		var sum int64
		for _, v := range state[tc.Task()] {
			sum += v*31 + 7
		}
		tc.PublishResult(sum)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sums := make([]int64, len(results))
	for i, r := range results {
		sums[i] = r.(int64)
	}
	return state, sums, nil
}

// chaosMemTiers is the harness's memory-budget axis: unbounded keeps every
// shuffle block resident (and must record zero spills), tight leaves room for
// a handful of 64-byte blocks per executor, and oneblock is the pathological
// budget where a single maximal block fills an executor and almost every
// commit spills. Spilling must be invisible to everything the oracle checks.
var chaosMemTiers = []struct {
	name   string
	budget int64 // bytes per executor; 0 = unbounded
}{
	{"unbounded", 0},
	{"tight", 256},
	{"oneblock", 64},
}

// chaosConfig builds the cluster configuration for one combo. MaxTaskRetries
// is set high enough that retry exhaustion is effectively impossible, so
// pass/fail stays deterministic per seed (a speculative chain rescuing an
// exhausted primary would otherwise depend on real-time racing).
func chaosConfig(seed int64, executors int, failureRate, execFail float64, stragglers, speculation bool, memBudget int64) Config {
	cfg := Config{
		Executors:             executors,
		CoresPerExecutor:      1,
		Seed:                  seed,
		FailureRate:           failureRate,
		ExecutorFailureRate:   execFail,
		MaxTaskRetries:        12,
		Speculation:           speculation,
		SpeculationQuantile:   0.5,
		SpeculationMultiplier: 1.2,
		StragglerVirtualMS:    40,
		StragglerRealDelayMS:  2,
	}
	if stragglers {
		cfg.StragglerRate = 0.3
	}
	if memBudget > 0 {
		cfg.SpillToDisk = true
		cfg.MemoryPerExecutorBytes = memBudget
	}
	return cfg
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChaos is the deterministic chaos harness: 10 seeded programs x
// {1,4,8 executors} x {fault injection off/on} x {executor kills off/on} x
// {stragglers off/on} x {speculation off/on} x {unbounded/tight/oneblock
// memory budget} = 1440 configurations, each run on a 1-worker and a
// 3-worker pool, every one bit-identical to the sequential oracle.
// The pool's shared cursor hands tasks to whichever worker or spare is free,
// so a task runs on an arbitrary goroutine, with an arbitrary WorkerScratch,
// interleaved with arbitrary neighbors — and one worker serializes a stage
// outright, yet
// nothing the oracle checks may move, because every observable side effect
// is commit-gated and every injection decision is hashed from stable
// identities rather than arrival order. Executor kills exercise the full
// recovery path — host-local shuffle loss, FetchFailed, lineage
// resubmission — and the committed counters must still match the oracle exactly: patch-up
// recomputation runs in recovery mode and contributes no work-counter
// deltas. The memory tiers force shuffle blocks through the disk overflow
// tier; spilling must be visible only in the SpillEvents/SpilledBytes
// counters (accounted separately, like the recovery counters), never in
// partition contents, published results, or work counters. A combo that
// exhausts MaxStageRetries must fail with the typed StageAbortedError, and
// must fail identically when re-run. Short mode trims the seed set, keeping
// the full grid shape.
func TestChaos(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		prog := genChaosProgram(seed * 7919)
		want := chaosOracle(prog)
		for _, executors := range []int{1, 4, 8} {
			for _, failureRate := range []float64{0, 0.3} {
				for _, execFail := range []float64{0, 0.3} {
					for _, stragglers := range []bool{false, true} {
						for _, speculation := range []bool{false, true} {
							for _, tier := range chaosMemTiers {
								for _, workers := range []int{1, 3} {
									name := fmt.Sprintf("seed=%d/exec=%d/fail=%v/kill=%v/strag=%v/spec=%v/mem=%s/workers=%d",
										seed, executors, failureRate, execFail, stragglers, speculation, tier.name, workers)
									cfg := chaosConfig(seed, executors, failureRate, execFail, stragglers, speculation, tier.budget)
									cfg.RealWorkers = workers
									unbounded := tier.budget == 0
									t.Run(name, func(t *testing.T) {
										t.Parallel()
										c := New(cfg)
										defer c.Close()
										state, sums, err := runChaosProgram(c, prog)
										if err != nil {
											if execFail == 0 {
												t.Fatalf("program failed without executor kills: %v", err)
											}
											// Retry exhaustion is the only legitimate
											// failure, it must carry the typed abort,
											// and a re-run must abort the same stage.
											// (The FetchFailed cause may name a
											// different lost subset: which outputs
											// are still missing at the final fetch
											// depends on real-time attempt races.)
											var abort *StageAbortedError
											if !errors.As(err, &abort) {
												t.Fatalf("program failed without typed stage abort: %v", err)
											}
											c2 := New(cfg)
											defer c2.Close()
											_, _, err2 := runChaosProgram(c2, prog)
											var abort2 *StageAbortedError
											if err2 == nil || !errors.As(err2, &abort2) || abort.Stage != abort2.Stage {
												t.Fatalf("abort not deterministic:\n  first: %v\n second: %v", err, err2)
											}
											return
										}
										if len(state) != len(want.finalState) {
											t.Fatalf("final partitions = %d, want %d", len(state), len(want.finalState))
										}
										for i := range state {
											if !int64sEqual(state[i], want.finalState[i]) {
												t.Errorf("partition %d = %v, want %v", i, state[i], want.finalState[i])
											}
										}
										for i := range sums {
											if sums[i] != want.finalResults[i] {
												t.Errorf("published checksum %d = %d, want %d", i, sums[i], want.finalResults[i])
											}
										}
										m := c.Metrics().Snapshot()
										// Counters are commit-gated: retried, cancelled,
										// and speculation-losing attempts must not leak.
										if m.RecordsProcessed != want.records {
											t.Errorf("RecordsProcessed = %d, want %d", m.RecordsProcessed, want.records)
										}
										if m.Comparisons != want.comparisons {
											t.Errorf("Comparisons = %d, want %d", m.Comparisons, want.comparisons)
										}
										if m.ShuffleRecordsWritten != want.shufRecords {
											t.Errorf("ShuffleRecordsWritten = %d, want %d", m.ShuffleRecordsWritten, want.shufRecords)
										}
										if m.ShuffleBytesWritten != want.shufWritten {
											t.Errorf("ShuffleBytesWritten = %d, want %d", m.ShuffleBytesWritten, want.shufWritten)
										}
										if m.ShuffleBytesRead != want.shufRead {
											t.Errorf("ShuffleBytesRead = %d, want %d", m.ShuffleBytesRead, want.shufRead)
										}
										if !stragglers && m.StragglersInjected != 0 {
											t.Errorf("StragglersInjected = %d with injection off", m.StragglersInjected)
										}
										if !speculation && m.SpeculativeTasksLaunched != 0 {
											t.Errorf("SpeculativeTasksLaunched = %d with speculation off", m.SpeculativeTasksLaunched)
										}
										// Spill counters are accounted separately, like
										// the recovery counters: they may vary with
										// attempt races, but must be zero without a
										// budget and never bleed into work counters
										// (asserted bit-exact above).
										if unbounded && (m.SpillEvents != 0 || m.SpilledBytes != 0) {
											t.Errorf("SpillEvents/SpilledBytes = %d/%d with no memory budget",
												m.SpillEvents, m.SpilledBytes)
										}
										if m.SpillEvents == 0 && m.SpilledBytes != 0 {
											t.Errorf("SpilledBytes = %d with zero SpillEvents", m.SpilledBytes)
										}
									})
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestChaosMemoryPressureSpills pins that the pathological one-block budget
// actually drives the overflow tier on a shuffle-heavy program (the grid
// above only proves spilling is *harmless*): a single-executor, fault-free
// run must both spill and stay bit-identical to the oracle.
func TestChaosMemoryPressureSpills(t *testing.T) {
	prog := chaosProgram{
		initial: [][]int64{{1, 2, 3, 4, 5, 6, 7, 8}, {9, 10, 11, 12, 13, 14, 15, 16}},
		ops: []chaosOp{
			{kind: 1, newParts: 2},
			{kind: 0, mulA: 3, addB: 1},
			{kind: 1, newParts: 3},
		},
	}
	want := chaosOracle(prog)
	c := New(chaosConfig(1, 1, 0, 0, false, false, 64))
	defer c.Close()
	state, _, err := runChaosProgram(c, prog)
	if err != nil {
		t.Fatalf("program failed: %v", err)
	}
	for i := range state {
		if !int64sEqual(state[i], want.finalState[i]) {
			t.Errorf("partition %d = %v, want %v", i, state[i], want.finalState[i])
		}
	}
	m := c.Metrics().Snapshot()
	if m.SpillEvents == 0 || m.SpilledBytes == 0 {
		t.Fatalf("SpillEvents/SpilledBytes = %d/%d, want both > 0 under the one-block budget",
			m.SpillEvents, m.SpilledBytes)
	}
	if m.RecordsProcessed != want.records || m.ShuffleBytesRead != want.shufRead {
		t.Errorf("work counters diverged under spilling: records %d/%d, shufRead %d/%d",
			m.RecordsProcessed, want.records, m.ShuffleBytesRead, want.shufRead)
	}
}

// TestChaosComboCount pins the harness's combination count to the
// acceptance floor (>= 720 in full mode: the original 240-combo floor
// tripled by the memory-budget axis).
func TestChaosComboCount(t *testing.T) {
	combos := 10 * 3 * 2 * 2 * 2 * 2 * len(chaosMemTiers)
	if combos < 720 {
		t.Fatalf("chaos grid has %d combos, need >= 720", combos)
	}
}
