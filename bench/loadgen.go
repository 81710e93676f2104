package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// p95MinSamples is the smallest sample for which a 95th percentile has ten
// observations beyond it; below it the value is still computed but marked
// unsupported.
const p95MinSamples = 200

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice: the smallest element with at least q of the sample at or
// below it. No interpolation, no bucketing.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// p95 returns the nearest-rank 95th percentile and whether the sample is
// large enough (p95MinSamples) to support it.
func p95(sorted []int64) (v int64, supported bool) {
	return percentile(sorted, 0.95), len(sorted) >= p95MinSamples
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// poissonSchedule returns n due times (offsets from the start of the run)
// with independent exponential gaps, deterministic in seed, scaled so that
// the last one falls exactly at span: a Poisson process observed until its
// n-th arrival. Scaling keeps the offered rate at n/span whatever the seed.
func poissonSchedule(seed int64, n int, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	at := make([]float64, n)
	var sum float64
	for i := range at {
		sum += rng.ExpFloat64()
		at[i] = sum
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(at[i] / sum * float64(span))
	}
	return out
}

// loadConfig describes one load phase against a running service.
type loadConfig struct {
	url    string // full ingest URL
	bodies [][]byte
	// conns is the number of keep-alive connections, one goroutine each.
	conns int
	// schedule, when set, makes the run an open loop: request i is due at
	// start+schedule[i] and its latency counts from that instant. Otherwise
	// each of conns clients sends its next request as soon as the previous
	// one completes, and none starts after window.
	schedule []time.Duration
	window   time.Duration
}

const (
	// maxRetries bounds resends after 429/503; each waits out Retry-After.
	maxRetries = 3
	// requestTimeout covers one attempt, connection to last byte.
	requestTimeout = 30 * time.Second
)

// wireMatch and wireResponse mirror the daemon's ingest response.
type wireMatch struct {
	CaseA     string  `json:"caseA"`
	CaseB     string  `json:"caseB"`
	Score     float64 `json:"score"`
	Duplicate bool    `json:"duplicate"`
}

type wireResponse struct {
	Ingested   int         `json:"ingested"`
	Scored     int         `json:"scored"`
	Duplicates int         `json:"duplicates"`
	Matches    []wireMatch `json:"matches"`
}

// outcome is what happened to one attempted request.
type outcome struct {
	index int
	// latency runs from the send instant (closed loop) or the due instant
	// (open loop) to the last byte of the response; lag is how long after its
	// due instant an open-loop request was actually sent.
	latency, lag time.Duration
	ok           bool
	throttled    int
	err          string
	resp         wireResponse
}

type loadResult struct {
	outcomes []outcome // one per attempted request, in completion order
	wall     time.Duration
}

func (r *loadResult) count(pred func(outcome) bool) int {
	n := 0
	for _, o := range r.outcomes {
		if pred(o) {
			n++
		}
	}
	return n
}

// runLoad drives cfg's requests at the service from this process and returns
// one outcome per request attempted.
func runLoad(ctx context.Context, cfg loadConfig) *loadResult {
	client := &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: cfg.conns,
			MaxConnsPerHost:     cfg.conns,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()

	var mu sync.Mutex
	res := &loadResult{}
	start := time.Now()
	do := func(i int, due time.Time) {
		o := send(ctx, client, cfg, i, due)
		mu.Lock()
		res.outcomes = append(res.outcomes, o)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(cfg.conns)
	if cfg.schedule == nil {
		var next atomic.Int64
		for c := 0; c < cfg.conns; c++ {
			go func() {
				defer wg.Done()
				for ctx.Err() == nil && time.Since(start) < cfg.window {
					i := int(next.Add(1)) - 1
					if i >= len(cfg.bodies) {
						return
					}
					do(i, time.Time{})
				}
			}()
		}
	} else {
		// The dispatcher hands each request to a free connection at its due
		// instant; when every connection is busy the request waits here, and
		// that wait shows up as lag and in its latency.
		jobs := make(chan int)
		for c := 0; c < cfg.conns; c++ {
			go func() {
				defer wg.Done()
				for i := range jobs {
					do(i, start.Add(cfg.schedule[i]))
				}
			}()
		}
	dispatch:
		for i, at := range cfg.schedule {
			if d := time.Until(start.Add(at)); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					break dispatch
				}
			}
			select {
			case jobs <- i:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(jobs)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// send posts request i, resending after 429/503 up to cfg.maxRetries times.
func send(ctx context.Context, client *http.Client, cfg loadConfig, i int, due time.Time) outcome {
	o := outcome{index: i}
	sent := time.Now()
	from := sent
	if !due.IsZero() {
		from = due
		o.lag = sent.Sub(due)
	}
	for {
		status, retryAfter, body, err := post(ctx, client, cfg.url, cfg.bodies[i])
		o.latency = time.Since(from)
		switch {
		case err != nil:
			o.err = err.Error()
			return o
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			if o.throttled == maxRetries {
				o.err = fmt.Sprintf("HTTP %d after %d retries", status, o.throttled)
				return o
			}
			o.throttled++
			select {
			case <-time.After(retryAfter):
			case <-ctx.Done():
				o.err = ctx.Err().Error()
				return o
			}
		case status/100 != 2:
			o.err = fmt.Sprintf("HTTP %d: %s", status, bytes.TrimSpace(body))
			return o
		default:
			if err := json.Unmarshal(body, &o.resp); err != nil {
				o.err = "decoding response: " + err.Error()
				return o
			}
			o.ok = true
			return o
		}
	}
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (status int, retryAfter time.Duration, respBody []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	respBody, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, nil, err
	}
	retryAfter = time.Second
	if s, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && s >= 0 {
		retryAfter = time.Duration(s) * time.Second
	}
	return resp.StatusCode, retryAfter, respBody, nil
}
