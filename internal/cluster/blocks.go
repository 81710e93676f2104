package cluster

import (
	"container/list"
	"fmt"
	"sync"
)

// BlockID identifies one cached RDD partition.
type BlockID struct {
	RDD       int
	Partition int
}

// BlockStore is the cluster's in-memory partition cache, the analogue of
// Spark's block manager. Capacity is the sum of the executors' memory
// budgets; when an insert would exceed it, least-recently used blocks are
// displaced. What displacement means depends on the block: with
// Config.SpillToDisk set and a SpillCodec attached (PutSpillable), the block
// is spilled to executor-local disk — MEMORY_AND_DISK storage — and read back
// transparently on the next Get, charging virtual disk time. Blocks without
// a codec (or with spilling off) are evicted as before and recomputed from
// lineage by the RDD layer on the next read.
type BlockStore struct {
	cluster  *Cluster
	mu       sync.Mutex
	capacity int64
	used     int64
	lru      *list.List // front = most recently used; holds *blockEntry
	index    map[BlockID]*list.Element
	// spilled holds blocks displaced to the disk tier; they are out of the
	// LRU and do not count toward used. Like shuffle files, a spilled
	// block lives on its executor's local disk and dies with the host.
	spilled map[BlockID]*blockEntry
}

type blockEntry struct {
	id    BlockID
	data  any
	bytes int64
	// executor is the host whose loss drops this block; ReliableStorage
	// marks driver-side inserts, which survive executor failures.
	executor int
	// codec, when non-nil, makes the block spillable instead of evictable.
	codec SpillCodec
	// spill is set while the block lives on disk (data is nil then).
	spill *SpillRef
}

// ReliableStorage is the executor argument for blocks that are not hosted on
// any single executor and therefore survive executor loss.
const ReliableStorage = -1

func newBlockStore(capacity int64, c *Cluster) *BlockStore {
	return &BlockStore{
		cluster:  c,
		capacity: capacity,
		lru:      list.New(),
		index:    make(map[BlockID]*list.Element),
		spilled:  make(map[BlockID]*blockEntry),
	}
}

// Get returns the cached partition and whether it was present, updating
// recency on a hit. Spilled blocks are read back transparently; the virtual
// disk time that costs is charged to the cluster clock. Tasks should prefer
// GetWithCost so the charge lands on their own attempt.
func (b *BlockStore) Get(id BlockID) (any, bool) {
	data, ns, ok := b.GetWithCost(id)
	if ns > 0 {
		b.cluster.mu.Lock()
		b.cluster.virtualNS += ns
		b.cluster.mu.Unlock()
	}
	return data, ok
}

// GetWithCost is Get returning the virtual disk time of any spill read-back
// the hit required, so task-side callers can charge it to their attempt.
func (b *BlockStore) GetWithCost(id BlockID) (any, float64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.index[id]; ok {
		b.lru.MoveToFront(el)
		b.cluster.metrics.BlockHits.Add(1)
		e := el.Value.(*blockEntry)
		b.traceBlock(EventBlockHit, id, e.bytes)
		return e.data, 0, true
	}
	if e, ok := b.spilled[id]; ok {
		data, ns, err := b.unspillLocked(e)
		if err == nil {
			b.cluster.metrics.BlockHits.Add(1)
			b.traceBlock(EventBlockHit, id, e.bytes)
			return data, ns, true
		}
		// A block that cannot come back from disk is simply gone; lineage
		// recompute covers it like an eviction would.
	}
	b.cluster.metrics.BlockMisses.Add(1)
	b.traceBlock(EventBlockMiss, id, 0)
	return nil, 0, false
}

// unspillLocked reads one spilled block back into the memory tier,
// re-admitting it at the LRU front (which may displace others). On any
// read-back failure the block is dropped entirely. Callers hold b.mu.
func (b *BlockStore) unspillLocked(e *blockEntry) (any, float64, error) {
	ref := *e.spill
	delete(b.spilled, e.id)
	raw, err := b.cluster.spill.Get(ref)
	if err == nil {
		var data any
		data, err = e.codec.Decode(raw)
		if err == nil {
			e.data = data
			e.spill = nil
			b.cluster.spill.Free(ref)
			b.index[e.id] = b.lru.PushFront(e)
			b.used += e.bytes
			for b.used > b.capacity {
				b.displaceLocked()
			}
			ns := b.cluster.AccountSpillRead(ref, fmt.Sprintf("rdd%d/p%d", e.id.RDD, e.id.Partition))
			return data, ns, nil
		}
	}
	b.cluster.spill.Free(ref)
	return nil, 0, err
}

// traceBlock emits one block-store trace event; the Enabled check keeps the
// disabled path free of the Detail formatting.
func (b *BlockStore) traceBlock(kind EventKind, id BlockID, bytes int64) {
	if !b.cluster.tracer.Enabled() {
		return
	}
	b.cluster.tracer.Emit(Event{Kind: kind, Task: -1, Attempt: -1, Executor: -1, Bytes: bytes,
		Detail: fmt.Sprintf("rdd%d/p%d", id.RDD, id.Partition)})
}

// Put caches a partition hosted on the given executor (ReliableStorage for
// blocks that survive executor loss). Blocks larger than the whole store are
// rejected (the partition stays recompute-only). Existing entries are
// replaced, adopting the new host. Blocks stored through Put carry no codec
// and are evicted (not spilled) under memory pressure.
func (b *BlockStore) Put(id BlockID, data any, bytes int64, executor int) bool {
	return b.PutSpillable(id, data, bytes, executor, nil)
}

// PutSpillable is Put with a SpillCodec attached: under memory pressure the
// block is spilled to the executor's local disk instead of evicted, provided
// Config.SpillToDisk is set.
func (b *BlockStore) PutSpillable(id BlockID, data any, bytes int64, executor int, codec SpillCodec) bool {
	if bytes > b.capacity && !(b.cluster.cfg.SpillToDisk && codec != nil) {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.spilled[id]; ok {
		// Replacing a spilled block: the on-disk copy is stale.
		b.cluster.spill.Free(*e.spill)
		delete(b.spilled, id)
	}
	if el, ok := b.index[id]; ok {
		e := el.Value.(*blockEntry)
		b.used += bytes - e.bytes
		e.data = data
		e.bytes = bytes
		e.executor = executor
		e.codec = codec
		b.lru.MoveToFront(el)
	} else {
		e := &blockEntry{id: id, data: data, bytes: bytes, executor: executor, codec: codec}
		b.index[id] = b.lru.PushFront(e)
		b.used += bytes
		b.cluster.metrics.BlocksCached.Add(1)
		b.traceBlock(EventBlockCached, id, bytes)
	}
	for b.used > b.capacity {
		b.displaceLocked()
	}
	return true
}

// InvalidateExecutor drops every cached partition hosted on executor e —
// resident and spilled alike: a spilled block lives on the dead host's local
// disk — returning how many disappeared. Dropped partitions are recomputed
// from lineage on the next read, exactly like evicted ones.
func (b *BlockStore) InvalidateExecutor(e int) int {
	if e == ReliableStorage {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	var next *list.Element
	for el := b.lru.Front(); el != nil; el = next {
		next = el.Next()
		be := el.Value.(*blockEntry)
		if be.executor != e {
			continue
		}
		b.lru.Remove(el)
		delete(b.index, be.id)
		b.used -= be.bytes
		n++
	}
	for id, be := range b.spilled {
		if be.executor != e {
			continue
		}
		b.cluster.spill.Free(*be.spill)
		delete(b.spilled, id)
		n++
	}
	return n
}

// displaceLocked removes the least-recently-used block from the memory tier:
// spillable blocks (PutSpillable + Config.SpillToDisk) move to the disk tier,
// everything else is evicted and must be recomputed from lineage. Callers
// hold b.mu.
func (b *BlockStore) displaceLocked() {
	el := b.lru.Back()
	if el == nil {
		return
	}
	e := el.Value.(*blockEntry)
	if b.cluster.cfg.SpillToDisk && e.codec != nil {
		if raw, err := e.codec.Encode(e.data); err == nil {
			if ref, err := b.cluster.spill.Put(raw, e.executor); err == nil {
				b.lru.Remove(el)
				delete(b.index, e.id)
				b.used -= e.bytes
				e.data = nil
				e.spill = &ref
				b.spilled[e.id] = e
				b.cluster.recordSpill(ref, fmt.Sprintf("rdd%d/p%d", e.id.RDD, e.id.Partition))
				return
			}
		}
		// Encoding or disk trouble: fall back to plain eviction; lineage
		// recompute keeps the job correct either way.
	}
	b.lru.Remove(el)
	delete(b.index, e.id)
	b.used -= e.bytes
	b.cluster.metrics.BlockEvictions.Add(1)
	b.traceBlock(EventBlockEvict, e.id, e.bytes)
}

// Remove drops a specific block if present (Unpersist support).
func (b *BlockStore) Remove(id BlockID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.index[id]; ok {
		e := el.Value.(*blockEntry)
		b.lru.Remove(el)
		delete(b.index, id)
		b.used -= e.bytes
	}
	if e, ok := b.spilled[id]; ok {
		b.cluster.spill.Free(*e.spill)
		delete(b.spilled, id)
	}
}

// Len returns the number of cached blocks, resident plus spilled.
func (b *BlockStore) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.index) + len(b.spilled)
}

// SpilledLen returns how many blocks currently live in the disk tier.
func (b *BlockStore) SpilledLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.spilled)
}
