package rdd

import (
	"container/heap"

	"adrdedup/internal/cluster"
)

// Collect materializes the whole dataset on the driver, in partition order.
func (r *RDD[T]) Collect() ([]T, error) {
	parts, err := RunJob(r, r.lineageName()+".collect", func(_ *cluster.TaskContext, _ int, data []T) ([]T, error) {
		return data, nil
	})
	if err != nil {
		return nil, err
	}
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// BoundedMin returns the n smallest elements of data under less, ascending.
// It is the reference selection the kNN kernels' tests check their bounded
// top-k against.
func BoundedMin[T any](data []T, n int, less func(a, b T) bool) []T {
	if n <= 0 || len(data) == 0 {
		return nil
	}
	h := &maxHeap[T]{less: less}
	for _, v := range data {
		if h.Len() < n {
			heap.Push(h, v)
		} else if less(v, h.items[0]) {
			h.items[0] = v
			heap.Fix(h, 0)
		}
	}
	out := make([]T, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(T)
	}
	return out
}

// maxHeap keeps the largest element at the root so it can be displaced by
// smaller candidates (bounded smallest-n selection).
type maxHeap[T any] struct {
	items []T
	less  func(a, b T) bool
}

func (h *maxHeap[T]) Len() int           { return len(h.items) }
func (h *maxHeap[T]) Less(i, j int) bool { return h.less(h.items[j], h.items[i]) }
func (h *maxHeap[T]) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *maxHeap[T]) Push(x any)         { h.items = append(h.items, x.(T)) }
func (h *maxHeap[T]) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}
