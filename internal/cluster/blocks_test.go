package cluster

import "testing"

func TestBlockStorePutGet(t *testing.T) {
	c := New(Config{Executors: 1, MemoryPerExecutorMB: 1})
	bs := c.Blocks()
	id := BlockID{RDD: 1, Partition: 0}
	if _, ok := bs.Get(id); ok {
		t.Fatal("empty store returned a block")
	}
	if !bs.Put(id, []int{1, 2, 3}, 100, 0) {
		t.Fatal("Put rejected a small block")
	}
	got, ok := bs.Get(id)
	if !ok {
		t.Fatal("block not found after Put")
	}
	if v := got.([]int); len(v) != 3 || v[0] != 1 {
		t.Errorf("got %v", v)
	}
	if bs.Used() != 100 || bs.Len() != 1 {
		t.Errorf("Used=%d Len=%d", bs.Used(), bs.Len())
	}
}

func TestBlockStoreReplace(t *testing.T) {
	c := New(Config{Executors: 1, MemoryPerExecutorMB: 1})
	bs := c.Blocks()
	id := BlockID{RDD: 1, Partition: 0}
	bs.Put(id, "a", 100, 0)
	bs.Put(id, "b", 200, 0)
	if bs.Used() != 200 || bs.Len() != 1 {
		t.Errorf("after replace Used=%d Len=%d, want 200, 1", bs.Used(), bs.Len())
	}
	got, _ := bs.Get(id)
	if got.(string) != "b" {
		t.Errorf("got %v, want b", got)
	}
}

func TestBlockStoreLRUEviction(t *testing.T) {
	c := New(Config{Executors: 1, MemoryPerExecutorMB: 1}) // 1MB capacity
	bs := c.Blocks()
	half := int64(600 << 10) // 600KB; two don't fit
	a := BlockID{RDD: 1, Partition: 0}
	b := BlockID{RDD: 1, Partition: 1}
	bs.Put(a, "a", half, 0)
	bs.Put(b, "b", half, 0) // evicts a (LRU)
	if _, ok := bs.Get(a); ok {
		t.Error("block a should have been evicted")
	}
	if _, ok := bs.Get(b); !ok {
		t.Error("block b should be resident")
	}
	if c.Metrics().BlockEvictions.Load() != 1 {
		t.Errorf("evictions = %d, want 1", c.Metrics().BlockEvictions.Load())
	}
}

func TestBlockStoreLRURecencyOrder(t *testing.T) {
	c := New(Config{Executors: 1, MemoryPerExecutorMB: 1})
	bs := c.Blocks()
	third := int64(400 << 10)
	a := BlockID{RDD: 1, Partition: 0}
	b := BlockID{RDD: 1, Partition: 1}
	d := BlockID{RDD: 1, Partition: 2}
	bs.Put(a, "a", third, 0)
	bs.Put(b, "b", third, 0)
	bs.Get(a)                // touch a: now b is LRU
	bs.Put(d, "d", third, 0) // evicts b
	if _, ok := bs.Get(b); ok {
		t.Error("b should have been evicted (LRU after touch of a)")
	}
	if _, ok := bs.Get(a); !ok {
		t.Error("a should survive (recently used)")
	}
}

func TestBlockStoreRejectsOversized(t *testing.T) {
	c := New(Config{Executors: 1, MemoryPerExecutorMB: 1})
	bs := c.Blocks()
	if bs.Put(BlockID{RDD: 1}, "x", bs.Capacity()+1, 0) {
		t.Error("Put should reject blocks larger than capacity")
	}
}

func TestBlockStoreRemove(t *testing.T) {
	c := New(Config{Executors: 1, MemoryPerExecutorMB: 10})
	bs := c.Blocks()
	a := BlockID{RDD: 1, Partition: 0}
	b := BlockID{RDD: 1, Partition: 1}
	bs.Put(a, "a", 10, 0)
	bs.Put(b, "b", 10, 0)
	bs.Remove(a)
	if _, ok := bs.Get(a); ok {
		t.Error("a not removed")
	}
	if bs.Used() != 10 {
		t.Errorf("Used=%d, want 10", bs.Used())
	}
}

func TestBlockStoreConcurrentAccess(t *testing.T) {
	c := New(Config{Executors: 4, MemoryPerExecutorMB: 1})
	bs := c.Blocks()
	_, err := c.RunStage("hammer", 32, func(tc *TaskContext) error {
		id := BlockID{RDD: tc.Task() % 8, Partition: tc.Task() % 4}
		bs.Put(id, tc.Task(), 1000, 0)
		bs.Get(id)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
