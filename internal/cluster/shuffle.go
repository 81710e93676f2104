package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ShuffleService stores committed map-side shuffle output per
// (shuffle, reduce partition). Like Spark's shuffle files, output is retained
// until the shuffle is unregistered, so downstream recomputation (e.g. after
// a cache eviction) can re-read it without re-running the map stage.
//
// Bucket commits are idempotent: blocks are keyed by (map task, write
// sequence), so if the same map task ever commits twice — a recovery stage
// regenerating lost output under the original keys — the bucket contents
// equal those of a single write. Fetches return blocks sorted by that key,
// which makes reduce-side input order (and hence downstream partition
// contents) independent of the order in which map tasks committed.
//
// Blocks are host-local: every committed block records the executor that
// produced it, and losing an executor invalidates exactly its blocks. A
// reduce-side fetch that touches a lost map output fails with
// *FetchFailedError naming the missing map tasks, and the stage scheduler
// repairs the shuffle through the recompute callback the producing RDD
// registered (SetRecompute) before resubmitting the reduce stage — Spark's
// MapOutputTracker + lineage resubmission protocol.
//
// # Memory budgets
//
// With Config.SpillToDisk set and a codec registered (SetCodec), each
// executor's committed shuffle buffers are held to its memory budget: a
// commit that would push the producing executor over the budget spills the
// incoming block to that executor's local disk (framed, compressed, charged
// at spillMBps) instead of keeping it resident. Fetches read spilled blocks
// back transparently, returning the extra virtual disk time for the reduce
// attempt to charge. Spilling is a pure storage decision: fetched contents,
// fetch ordering, and the committed byte/record counters are identical to an
// unbounded run — only SpillEvents/SpilledBytes and the virtual clock see it.
type ShuffleService struct {
	cluster *Cluster

	mu       sync.Mutex
	nextID   int
	shuffles map[int]*shuffleState
	// residentBytes tracks each executor's in-memory committed shuffle
	// bytes across all registered shuffles, the quantity the budget bounds.
	residentBytes map[int]int64
}

// shuffleState is one registered shuffle's block and availability tracking.
type shuffleState struct {
	done bool
	// buckets[reduceID] maps each (map task, seq) key to its committed
	// block for that reduce partition.
	buckets map[int]map[blockKey]*shuffleBlock
	// hosts records which executor hosts each map task's committed output.
	hosts map[int]int
	// lost maps each map task whose output was dropped by an executor loss
	// to the executor that died holding it; cleared when the recomputed
	// output commits.
	lost map[int]int
	// lostByPart[reduceID] holds the subset of lost map tasks that had
	// written a block for that reduce partition, so fetches fail precisely
	// for the partitions that actually lost data.
	lostByPart map[int]map[int]int
	// recompute re-runs the given lost map partitions from lineage; the
	// producing layer (internal/rdd, or a raw-cluster caller) registers it
	// alongside the map stage.
	recompute func(lost []int) error
	// codec, when set, lets this shuffle's blocks spill under memory
	// pressure; without one every block stays resident (pre-budget
	// behaviour).
	codec SpillCodec
}

// blockKey identifies one map-output bucket within a reduce partition.
type blockKey struct {
	mapTask int
	seq     int
}

type shuffleBlock struct {
	data     any
	bytes    int64
	executor int
	// spill is set while the block lives on its executor's disk (data is
	// nil then).
	spill *SpillRef
}

// ErrFetchFailed is the sentinel under every *FetchFailedError, so callers
// can errors.Is a wrapped task error to detect shuffle-fetch failures.
var ErrFetchFailed = errors.New("cluster: shuffle fetch failed")

// FetchFailedError reports that a reduce-side shuffle read touched map
// outputs that were lost with their executor. MapTasks lists the missing map
// partitions for the fetched reduce partition; Executors the dead hosts that
// held them (both sorted ascending).
type FetchFailedError struct {
	ShuffleID int
	Partition int
	MapTasks  []int
	Executors []int
}

func (e *FetchFailedError) Error() string {
	return fmt.Sprintf("shuffle %d partition %d: map outputs %v lost with executors %v",
		e.ShuffleID, e.Partition, e.MapTasks, e.Executors)
}

func (e *FetchFailedError) Unwrap() error { return ErrFetchFailed }

func newShuffleService(c *Cluster) *ShuffleService {
	return &ShuffleService{
		cluster:       c,
		shuffles:      make(map[int]*shuffleState),
		residentBytes: make(map[int]int64),
	}
}

func newShuffleState() *shuffleState {
	return &shuffleState{
		buckets:    make(map[int]map[blockKey]*shuffleBlock),
		hosts:      make(map[int]int),
		lost:       make(map[int]int),
		lostByPart: make(map[int]map[int]int),
	}
}

// Register allocates a new shuffle ID.
func (s *ShuffleService) Register() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.shuffles[s.nextID] = newShuffleState()
	return s.nextID
}

// SetCodec registers the spill codec for a shuffle's blocks. The producing
// layer calls it alongside Register; shuffles without a codec never spill.
func (s *ShuffleService) SetCodec(id int, codec SpillCodec) {
	s.mu.Lock()
	if st, ok := s.shuffles[id]; ok {
		st.codec = codec
	}
	s.mu.Unlock()
}

// SetRecompute registers the lineage callback that regenerates the given map
// tasks' output after an executor loss. The scheduler invokes it from the
// stage-resubmission path; without one, a fetch failure on this shuffle is
// unrecoverable and aborts the reduce stage.
func (s *ShuffleService) SetRecompute(id int, fn func(lost []int) error) {
	s.mu.Lock()
	if st, ok := s.shuffles[id]; ok {
		st.recompute = fn
	}
	s.mu.Unlock()
}

// recomputeFor returns the shuffle's registered recompute callback, nil when
// absent.
func (s *ShuffleService) recomputeFor(id int) func(lost []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.shuffles[id]; ok {
		return st.recompute
	}
	return nil
}

// MarkDone records that the shuffle's map stage completed.
func (s *ShuffleService) MarkDone(id int) {
	s.mu.Lock()
	if st, ok := s.shuffles[id]; ok {
		st.done = true
	}
	s.mu.Unlock()
}

// Done reports whether the shuffle's map stage completed.
func (s *ShuffleService) Done(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.shuffles[id]
	return ok && st.done
}

// Empty reports whether reduce partition p of the shuffle is proven to hold
// no record: the map stage is done, no block is committed for p, and no block
// of p was lost with an executor. A bucket whose blocks died is never empty —
// its reduce task must launch, fail its fetch and trigger recovery. An
// unknown (or released) shuffle is never empty either.
func (s *ShuffleService) Empty(id, p int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.shuffles[id]
	return ok && st.done && len(st.buckets[p]) == 0 && len(st.lostByPart[p]) == 0
}

// Unregister drops all blocks and tracking state of a shuffle, releasing its
// resident-byte shares and spilled files.
func (s *ShuffleService) Unregister(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.shuffles[id]
	if !ok {
		return
	}
	for _, bucket := range st.buckets {
		for _, b := range bucket {
			s.releaseLocked(b)
		}
	}
	delete(s.shuffles, id)
}

// Mark returns a watermark covering every shuffle registered so far. A later
// ReleaseSince(mark) drops exactly the shuffles registered after this call.
func (s *ShuffleService) Mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// ReleaseSince unregisters every shuffle registered after the watermark,
// returning their resident bytes and spilled files. Map outputs are only
// read while the job that produced them runs, so a long-lived driver (the
// online serving layer) releases each job's shuffles once its results are
// collected instead of retaining them for the cluster's lifetime.
func (s *ShuffleService) ReleaseSince(mark int) {
	s.mu.Lock()
	var ids []int
	for id := range s.shuffles {
		if id > mark {
			ids = append(ids, id)
		}
	}
	s.mu.Unlock()
	for _, id := range ids {
		s.Unregister(id)
	}
}

// Registered returns the number of currently registered shuffles, for tests
// and diagnostics.
func (s *ShuffleService) Registered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shuffles)
}

// releaseLocked returns one block's storage: its resident-byte share or its
// spilled file. Callers hold s.mu.
func (s *ShuffleService) releaseLocked(b *shuffleBlock) {
	if b.spill != nil {
		s.cluster.spill.Free(*b.spill)
		return
	}
	s.residentBytes[b.executor] -= b.bytes
}

// LostMapTasks returns the map tasks whose output is currently lost, sorted
// ascending. The resubmission path recomputes exactly this set.
func (s *ShuffleService) LostMapTasks(id int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.shuffles[id]
	if !ok || len(st.lost) == 0 {
		return nil
	}
	out := make([]int, 0, len(st.lost))
	for m := range st.lost {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// damaged returns the registered shuffles with lost map outputs, in
// registration order.
func (s *ShuffleService) damaged() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for id, st := range s.shuffles {
		if len(st.lost) > 0 {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

func (s *ShuffleService) write(shuffleID, reduceID, mapTask, seq, executor int, data any, bytes int64) {
	s.mu.Lock()
	st, ok := s.shuffles[shuffleID]
	if !ok {
		st = newShuffleState()
		s.shuffles[shuffleID] = st
	}
	bucket, ok := st.buckets[reduceID]
	if !ok {
		bucket = make(map[blockKey]*shuffleBlock)
		st.buckets[reduceID] = bucket
	}
	key := blockKey{mapTask: mapTask, seq: seq}
	// Last write wins; attempts of a deterministic task write identical
	// data, so a duplicate commit leaves the bucket unchanged.
	if old, ok := bucket[key]; ok {
		s.releaseLocked(old)
	}
	blk := &shuffleBlock{data: data, bytes: bytes, executor: executor}

	// Budget check: a commit that would push the producing executor's
	// resident shuffle buffers over its memory budget spills the incoming
	// block to local disk instead (Spark's shuffle spill, at commit
	// granularity). Only shuffles with a registered codec can spill.
	var spilledRef *SpillRef
	if s.cluster.cfg.SpillToDisk && st.codec != nil &&
		s.residentBytes[executor]+bytes > s.cluster.cfg.MemoryPerExecutorBytes {
		if raw, err := st.codec.Encode(data); err == nil {
			if ref, err := s.cluster.spill.Put(raw, executor); err == nil {
				blk.data = nil
				blk.spill = &ref
				spilledRef = &ref
			}
		}
		// Encoding or disk trouble: keep the block resident; correctness
		// beats the budget.
	}
	if blk.spill == nil {
		s.residentBytes[executor] += bytes
	}
	bucket[key] = blk
	st.hosts[mapTask] = executor
	delete(st.lost, mapTask)
	delete(st.lostByPart[reduceID], mapTask)
	s.mu.Unlock()

	// Account the spill outside s.mu: recordSpill takes the cluster clock
	// and tracer locks.
	if spilledRef != nil {
		s.cluster.recordSpill(*spilledRef,
			fmt.Sprintf("shuffle %d reduce %d map %d/%d", shuffleID, reduceID, mapTask, seq))
	}
}

// invalidateExecutor drops every committed block hosted by executor e —
// resident and spilled alike, spilled blocks living on the dead host's local
// disk — and marks the affected map tasks lost, returning how many map
// outputs disappeared across all registered shuffles.
func (s *ShuffleService) invalidateExecutor(e int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, st := range s.shuffles {
		for m, host := range st.hosts {
			if host != e {
				continue
			}
			delete(st.hosts, m)
			st.lost[m] = e
			n++
			for rid, bucket := range st.buckets {
				for k, b := range bucket {
					if k.mapTask == m {
						s.releaseLocked(b)
						delete(bucket, k)
						lp, ok := st.lostByPart[rid]
						if !ok {
							lp = make(map[int]int)
							st.lostByPart[rid] = lp
						}
						lp[m] = e
					}
				}
			}
		}
	}
	return n
}

// fetch returns the reduce partition's committed blocks sorted by
// (map task, seq), the raw bytes moved (the network charge, identical
// whether blocks were resident or spilled), and the virtual disk time spent
// reading spilled blocks back. It returns a *FetchFailedError when any map
// output the partition depends on was lost with its executor, and a hard
// error when a spilled block cannot be decoded.
func (s *ShuffleService) fetch(shuffleID, reduceID int) ([]any, int64, float64, *FetchFailedError, error) {
	s.mu.Lock()
	st, ok := s.shuffles[shuffleID]
	if !ok {
		s.mu.Unlock()
		return nil, 0, 0, nil, nil
	}
	if lp := st.lostByPart[reduceID]; len(lp) > 0 {
		ff := &FetchFailedError{ShuffleID: shuffleID, Partition: reduceID}
		seen := make(map[int]bool)
		for m, e := range lp {
			ff.MapTasks = append(ff.MapTasks, m)
			if !seen[e] {
				seen[e] = true
				ff.Executors = append(ff.Executors, e)
			}
		}
		sort.Ints(ff.MapTasks)
		sort.Ints(ff.Executors)
		s.mu.Unlock()
		return nil, 0, 0, ff, nil
	}
	bucket := st.buckets[reduceID]
	keys := make([]blockKey, 0, len(bucket))
	for k := range bucket {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].mapTask != keys[j].mapTask {
			return keys[i].mapTask < keys[j].mapTask
		}
		return keys[i].seq < keys[j].seq
	})
	out := make([]any, len(keys))
	var bytes int64
	var spilledIdx []int
	var spilledRefs []SpillRef
	codec := st.codec
	for i, k := range keys {
		b := bucket[k]
		bytes += b.bytes
		if b.spill != nil {
			// Defer the disk reads until s.mu is released.
			spilledIdx = append(spilledIdx, i)
			spilledRefs = append(spilledRefs, *b.spill)
			continue
		}
		out[i] = b.data
	}
	s.mu.Unlock()

	var spillNS float64
	for j, i := range spilledIdx {
		ref := spilledRefs[j]
		raw, err := s.cluster.spill.Get(ref)
		if err != nil {
			return nil, 0, 0, nil, fmt.Errorf("shuffle %d partition %d: %w", shuffleID, reduceID, err)
		}
		data, err := codec.Decode(raw)
		if err != nil {
			return nil, 0, 0, nil, fmt.Errorf("shuffle %d partition %d: decoding spilled block: %w",
				shuffleID, reduceID, err)
		}
		out[i] = data
		spillNS += s.cluster.AccountSpillRead(ref,
			fmt.Sprintf("shuffle %d reduce %d", shuffleID, reduceID))
	}
	return out, bytes, spillNS, nil, nil
}

// Shuffles exposes the shuffle service to the RDD layer.
func (c *Cluster) Shuffles() *ShuffleService { return c.shuffles }
