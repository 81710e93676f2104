package cluster

import "sync"

// WorkerScratch is a per-worker bundle of reusable buffers. Every pool
// worker owns exactly one WorkerScratch for as long as it runs and hands it
// to each task it runs via TaskContext.Scratch, so kernels (the candgen
// probe's overlap counters, candidate list and need table, the distance
// kernel's token marks) keep their zero-alloc steady state even with many
// tasks in flight: the buffers grow to the high-water mark once and are
// reused for every subsequent task on that worker. Two workers never share
// a WorkerScratch, so no synchronization or aliasing hazard exists between
// concurrent tasks (pool_test.go proves this).
//
// Buffers returned by the getters are valid until the same getter is called
// again on the same scratch. Float64s and Int32s return unspecified contents
// (stale data from the previous task), so callers must fully overwrite what
// they read. ZeroedInt32s and ZeroedBytes return zeroed tables instead: see
// ZeroedInt32s.
type WorkerScratch struct {
	f64 []float64
	i32 []int32
	// zi32 and zb are all zero, to their capacity, whenever no task holds
	// them.
	zi32 []int32
	zb   []byte
}

// Float64s returns a length-n float64 buffer with unspecified contents.
func (s *WorkerScratch) Float64s(n int) []float64 {
	if cap(s.f64) < n {
		s.f64 = make([]float64, roundCap(n))
	}
	return s.f64[:n]
}

// Int32s returns a length-n int32 buffer with unspecified contents.
func (s *WorkerScratch) Int32s(n int) []int32 {
	if cap(s.i32) < n {
		s.i32 = make([]int32, roundCap(n))
	}
	return s.i32[:n]
}

// ZeroedInt32s returns a length-n int32 table that is all zero, distinct
// from the buffer Int32s returns. The caller must leave it all zero again
// before its task returns, by resetting each element it set: a kernel that
// touches a few elements of a table sized by the database (or by the
// vocabulary) then pays for the elements it touched, not for a clear of the
// whole table per task. A caller whose table is all zero may call the getter
// again for a larger n, and gets a table that is all zero too.
func (s *WorkerScratch) ZeroedInt32s(n int) []int32 {
	if cap(s.zi32) < n {
		s.zi32 = make([]int32, roundCap(n))
	}
	return s.zi32[:n]
}

// ZeroedBytes returns a length-n byte table that is all zero, under the
// contract of ZeroedInt32s.
func (s *WorkerScratch) ZeroedBytes(n int) []byte {
	if cap(s.zb) < n {
		s.zb = make([]byte, roundCap(n))
	}
	return s.zb[:n]
}

// roundCap rounds a requested buffer size up to the next power of two so a
// slowly growing sequence of requests settles after O(log n) allocations.
func roundCap(n int) int {
	c := 64
	for c < n {
		c <<= 1
	}
	return c
}

// scratchPool recycles WorkerScratch instances across stages, so warmed
// buffers survive stage boundaries instead of being reallocated per stage.
type scratchPool struct {
	mu   sync.Mutex
	free []*WorkerScratch
}

func (p *scratchPool) get() *WorkerScratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return s
	}
	return &WorkerScratch{}
}

func (p *scratchPool) put(s *WorkerScratch) {
	if s == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}
