package cluster

import "sync"

// WorkerScratch is a per-worker bundle of reusable buffers. Every pool
// worker owns exactly one WorkerScratch for as long as it runs and hands it
// to each task it runs via TaskContext.Scratch, so kernels (the candgen
// probe's overlap counters, candidate list and need table) keep their
// zero-alloc steady state even with many tasks in flight: the buffers grow
// to the high-water mark once and are reused for every subsequent task on
// that worker. Two workers never share a WorkerScratch, so no
// synchronization or aliasing hazard exists between concurrent tasks
// (pool_test.go proves this).
//
// Buffers returned by the getters are valid until the same getter is called
// again on the same scratch; their contents are unspecified (stale data from
// the previous task), so callers must fully overwrite what they read.
type WorkerScratch struct {
	f64  []float64
	i32  []int32
	i32b []int32
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

// SecondInt32s returns a length-n int32 buffer with unspecified contents,
// distinct from the one Int32s returns, for a kernel that needs two at once.
func (s *WorkerScratch) SecondInt32s(n int) []int32 {
	if cap(s.i32b) < n {
		s.i32b = make([]int32, roundCap(n))
	}
	return s.i32b[:n]
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

// scratchPool recycles WorkerScratch instances across stages (and lends one
// to each speculative chain, which no pool worker runs), so warmed buffers
// survive stage boundaries instead of being reallocated per stage.
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
