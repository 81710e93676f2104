package serve

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram shape: geometric buckets growing histGrowth per step from
// histMin. Observations above the last bucket bound clamp into it, so the
// error of any reported quantile is bounded by one growth factor across the
// whole tracked range.
const (
	histMin    = 10 * time.Microsecond
	histMax    = 10 * time.Minute
	histGrowth = 1.05
)

// histBuckets covers histMin..histMax at histGrowth spacing, plus bucket 0
// for everything at or below histMin.
var histBuckets = int(math.Ceil(math.Log(float64(histMax)/float64(histMin))/math.Log(histGrowth))) + 1

// Histogram is a streaming latency histogram safe for concurrent Observe:
// fixed geometric buckets with atomic counters, O(buckets) quantile reads,
// no locks and no allocation on the hot path. The serve layer records one
// observation per processed batch; adrload records one per request.
type Histogram struct {
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, histBuckets)}
}

// histBucket maps a duration to its bucket index.
func histBucket(d time.Duration) int {
	if d <= histMin {
		return 0
	}
	i := int(math.Log(float64(d)/float64(histMin))/math.Log(histGrowth)) + 1
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histBound is the upper bound of a bucket: histMin * growth^i.
func histBound(i int) time.Duration {
	return time.Duration(float64(histMin) * math.Pow(histGrowth, float64(i)))
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Quantile returns an upper bound on the q-quantile (q in [0, 1]) of the
// recorded samples: the bound of the bucket holding the ceil(q*n)-th sample,
// capped at the maximum observation. Within one growth factor of exact.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			bound := histBound(i)
			if max := time.Duration(h.max.Load()); bound > max {
				bound = max
			}
			return bound
		}
	}
	return time.Duration(h.max.Load())
}

// LatencySummary is a point-in-time quantile snapshot in milliseconds, the
// shape /v1/stats and the load driver report.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"meanMs"`
	P50MS  float64 `json:"p50Ms"`
	P90MS  float64 `json:"p90Ms"`
	P95MS  float64 `json:"p95Ms"`
	P99MS  float64 `json:"p99Ms"`
	MaxMS  float64 `json:"maxMs"`
}

// Summary snapshots the histogram. Concurrent Observes make the snapshot
// approximate (counters are read without a global lock), which is fine for
// monitoring output.
func (h *Histogram) Summary() LatencySummary {
	n := h.count.Load()
	s := LatencySummary{Count: n}
	if n == 0 {
		return s
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	s.MeanMS = float64(h.sum.Load()) / float64(n) / float64(time.Millisecond)
	s.P50MS = ms(h.Quantile(0.50))
	s.P90MS = ms(h.Quantile(0.90))
	s.P95MS = ms(h.Quantile(0.95))
	s.P99MS = ms(h.Quantile(0.99))
	s.MaxMS = ms(time.Duration(h.max.Load()))
	return s
}
