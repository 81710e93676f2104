package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adrdedup/internal/adr"
	"adrdedup/internal/adrgen"
)

// TrafficConfig describes the synthetic report stream a load run pushes at
// the service. The stream is self-contained: it is generated from the same
// TGA-profile generator as the seed corpus but with campaign clustering
// disabled (campaign members are deliberately confusable, which would make
// candidate volume grow with database size instead of with true duplicate
// rate) and with case numbers re-prefixed so they can never collide with
// the daemon's seed database.
type TrafficConfig struct {
	// Reports is the stream length to pregenerate.
	Reports int
	// DupFraction is the share of reports that belong to an injected
	// duplicate pair (default 0.02) — these are what the service should
	// flag, keeping the smoke's matched count non-zero.
	DupFraction float64
	// Seed makes the stream deterministic.
	Seed int64
	// CasePrefix namespaces the stream's case numbers (default "LOAD").
	CasePrefix string
}

func (c TrafficConfig) withDefaults() TrafficConfig {
	if c.Reports <= 0 {
		c.Reports = 20000
	}
	switch {
	case c.DupFraction < 0:
		c.DupFraction = 0
	case c.DupFraction == 0:
		c.DupFraction = 0.02
	case c.DupFraction > 1:
		c.DupFraction = 1
	}
	if c.CasePrefix == "" {
		c.CasePrefix = "LOAD"
	}
	return c
}

// GenerateTraffic pregenerates the report stream of a load run.
func GenerateTraffic(cfg TrafficConfig) []adr.Report {
	cfg = cfg.withDefaults()
	dupPairs := int(float64(cfg.Reports) * cfg.DupFraction / 2)
	if dupPairs == 0 {
		dupPairs = -1 // adrgen: 0 means "default", negative means none
	}
	corpus := adrgen.Generate(adrgen.Config{
		NumReports:       cfg.Reports,
		DuplicatePairs:   dupPairs,
		Seed:             cfg.Seed,
		CampaignFraction: -1,
	})
	out := make([]adr.Report, len(corpus.Reports))
	for i, r := range corpus.Reports {
		r.CaseNumber = cfg.CasePrefix + "-" + r.CaseNumber
		r.ArrivalSeq = 0
		out[i] = r
	}
	return out
}

// LoadConfig configures a load run against a running service.
type LoadConfig struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Workers is the number of concurrent submitters (default 4).
	Workers int
	// BatchSize is reports per request (default 100). 1 uses the
	// single-report endpoint, exercising the other ingest path.
	BatchSize int
	// PushInterval is each worker's pause between sends (0 = none).
	PushInterval time.Duration
	// Duration bounds the run's wall clock; Count bounds the total
	// reports sent. At least one must be set; the run stops at whichever
	// limit is hit first. With only Duration set the pregenerated stream
	// is replayed in laps, with case numbers re-prefixed per lap so every
	// ingested report stays unique.
	Duration time.Duration
	Count    int
	// Traffic configures the synthetic stream. Traffic.Reports is
	// overridden by Count when Count is set.
	Traffic TrafficConfig
	// ReportEvery triggers the OnReport callback periodically (0 = off).
	ReportEvery time.Duration
	OnReport    func(LoadSnapshot)
	// Client overrides the HTTP client (default: 60s timeout).
	Client *http.Client
}

// LoadSnapshot is one periodic progress report.
type LoadSnapshot struct {
	Elapsed time.Duration
	// Cumulative counters.
	Sent, Batches, Errors, Throttled, Matched, Scored uint64
	// IntervalSent and IntervalThroughput cover the window since the
	// previous snapshot.
	IntervalSent       uint64
	IntervalThroughput float64
	// Latency is the cumulative request-latency distribution.
	Latency LatencySummary
}

// LoadResult is a finished run's totals. Request failures are counted in
// Errors (with FirstError kept for diagnosis), not returned as RunLoad
// errors.
type LoadResult struct {
	Workers    int            `json:"workers"`
	BatchSize  int            `json:"batchSize"`
	Elapsed    float64        `json:"elapsedSeconds"`
	Sent       uint64         `json:"sent"`
	Batches    uint64         `json:"batches"`
	Errors     uint64         `json:"errors"`
	Throttled  uint64         `json:"throttled"`
	Matched    uint64         `json:"matched"`
	Scored     uint64         `json:"scored"`
	Reports    float64        `json:"throughputPerSec"`
	Latency    LatencySummary `json:"latency"`
	FirstError string         `json:"firstError,omitempty"`
}

// maxRetries bounds per-batch retries on 429/503 backpressure (the driver
// honors Retry-After between attempts). Exhausting the budget counts the
// batch as an error.
const maxRetries = 64

// loadState is the shared mutable state of one run.
type loadState struct {
	cfg     LoadConfig
	traffic []adr.Report
	client  *http.Client

	cursor atomic.Int64 // next report index in the (possibly lapped) stream

	sent, batches, errors, throttled, matched, scored atomic.Uint64
	hist                                              *Histogram

	errMu    sync.Mutex
	firstErr string

	stop chan struct{} // closed at the duration deadline
}

// RunLoad drives the configured load against the service and returns the
// totals. The returned error covers configuration and context failures
// only; per-request failures are counted in LoadResult.Errors.
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadResult, error) {
	if cfg.BaseURL == "" {
		return LoadResult{}, errors.New("serve: load config needs a BaseURL")
	}
	if cfg.Duration <= 0 && cfg.Count <= 0 {
		return LoadResult{}, errors.New("serve: load config needs a Duration or a Count")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 100
	}
	if cfg.Count > 0 {
		cfg.Traffic.Reports = cfg.Count
	}
	st := &loadState{
		cfg:     cfg,
		traffic: GenerateTraffic(cfg.Traffic),
		client:  cfg.Client,
		hist:    NewHistogram(),
		stop:    make(chan struct{}),
	}
	if st.client == nil {
		st.client = &http.Client{Timeout: 60 * time.Second}
	}

	start := time.Now()
	var deadline *time.Timer
	if cfg.Duration > 0 {
		deadline = time.AfterFunc(cfg.Duration, func() { close(st.stop) })
		defer deadline.Stop()
	}

	var reporterWG sync.WaitGroup
	reporterDone := make(chan struct{})
	if cfg.ReportEvery > 0 && cfg.OnReport != nil {
		reporterWG.Add(1)
		go func() {
			defer reporterWG.Done()
			tick := time.NewTicker(cfg.ReportEvery)
			defer tick.Stop()
			var prevSent uint64
			var prevAt time.Duration
			for {
				select {
				case <-tick.C:
					now := time.Since(start)
					snap := st.snapshot(now)
					snap.IntervalSent = snap.Sent - prevSent
					if w := (now - prevAt).Seconds(); w > 0 {
						snap.IntervalThroughput = float64(snap.IntervalSent) / w
					}
					prevSent, prevAt = snap.Sent, now
					cfg.OnReport(snap)
				case <-reporterDone:
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.workerLoop(ctx)
		}()
	}
	wg.Wait()
	close(reporterDone)
	reporterWG.Wait()

	elapsed := time.Since(start)
	res := LoadResult{
		Workers:   cfg.Workers,
		BatchSize: cfg.BatchSize,
		Elapsed:   elapsed.Seconds(),
		Sent:      st.sent.Load(),
		Batches:   st.batches.Load(),
		Errors:    st.errors.Load(),
		Throttled: st.throttled.Load(),
		Matched:   st.matched.Load(),
		Scored:    st.scored.Load(),
		Latency:   st.hist.Summary(),
	}
	if s := elapsed.Seconds(); s > 0 {
		res.Reports = float64(res.Sent) / s
	}
	st.errMu.Lock()
	res.FirstError = st.firstErr
	st.errMu.Unlock()
	return res, ctx.Err()
}

func (st *loadState) snapshot(elapsed time.Duration) LoadSnapshot {
	return LoadSnapshot{
		Elapsed:   elapsed,
		Sent:      st.sent.Load(),
		Batches:   st.batches.Load(),
		Errors:    st.errors.Load(),
		Throttled: st.throttled.Load(),
		Matched:   st.matched.Load(),
		Scored:    st.scored.Load(),
		Latency:   st.hist.Summary(),
	}
}

// stopped reports whether the run should claim no further batches.
func (st *loadState) stopped(ctx context.Context) bool {
	select {
	case <-st.stop:
		return true
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// sleep pauses without overshooting the run's stop signals.
func (st *loadState) sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-st.stop:
	case <-ctx.Done():
	}
}

// claim reserves the next batch of the stream. In lapped (duration-only)
// mode, case numbers of lap L>0 are re-prefixed "L<L>-" to stay unique.
func (st *loadState) claim() ([]adr.Report, bool) {
	n := int64(len(st.traffic))
	start := st.cursor.Add(int64(st.cfg.BatchSize)) - int64(st.cfg.BatchSize)
	if st.cfg.Count > 0 {
		if start >= int64(st.cfg.Count) {
			return nil, false
		}
		end := start + int64(st.cfg.BatchSize)
		if end > int64(st.cfg.Count) {
			end = int64(st.cfg.Count)
		}
		return st.traffic[start:end], true
	}
	batch := make([]adr.Report, 0, st.cfg.BatchSize)
	for i := start; i < start+int64(st.cfg.BatchSize); i++ {
		r := st.traffic[i%n]
		if lap := i / n; lap > 0 {
			r.CaseNumber = "L" + strconv.FormatInt(lap, 10) + "-" + r.CaseNumber
		}
		batch = append(batch, r)
	}
	return batch, true
}

func (st *loadState) workerLoop(ctx context.Context) {
	for !st.stopped(ctx) {
		batch, ok := st.claim()
		if !ok {
			return
		}
		st.send(ctx, batch)
		st.sleep(ctx, st.cfg.PushInterval)
	}
}

// send posts one batch, honoring backpressure: 429/503 responses are
// retried after the server's Retry-After hint, up to maxRetries, and do not
// count as errors unless the budget is exhausted.
func (st *loadState) send(ctx context.Context, batch []adr.Report) {
	var url string
	var payload any
	if st.cfg.BatchSize == 1 && len(batch) == 1 {
		url = st.cfg.BaseURL + "/v1/reports"
		payload = batch[0]
	} else {
		url = st.cfg.BaseURL + "/v1/reports:batch"
		payload = struct {
			Reports []adr.Report `json:"reports"`
		}{batch}
	}
	body, err := json.Marshal(payload)
	if err != nil {
		st.fail("encoding batch: " + err.Error())
		return
	}

	for attempt := 0; ; attempt++ {
		begin := time.Now()
		status, retryAfter, resp, err := st.post(ctx, url, body)
		st.hist.Observe(time.Since(begin))
		switch {
		case err != nil:
			st.fail(err.Error())
			return
		case status == http.StatusOK:
			st.batches.Add(1)
			st.sent.Add(uint64(len(batch)))
			st.matched.Add(uint64(resp.Duplicates))
			st.scored.Add(uint64(resp.Scored))
			return
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			st.throttled.Add(1)
			if attempt >= maxRetries {
				st.fail(fmt.Sprintf("giving up after %d backpressure retries (HTTP %d)", attempt, status))
				return
			}
			if st.stopped(ctx) {
				// The run is over; an unfinished retry is not an error.
				return
			}
			st.sleep(ctx, retryAfter)
		default:
			st.fail(fmt.Sprintf("HTTP %d: %s", status, resp.Error))
			return
		}
	}
}

// postResponse is the union of the success and error response shapes.
type postResponse struct {
	Ingested   int    `json:"ingested"`
	Scored     int    `json:"scored"`
	Duplicates int    `json:"duplicates"`
	Error      string `json:"error"`
}

func (st *loadState) post(ctx context.Context, url string, body []byte) (status int, retryAfter time.Duration, out postResponse, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, 0, out, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return 0, 0, out, err
	}
	_ = json.Unmarshal(data, &out) // non-JSON bodies leave the zero value
	retryAfter = 50 * time.Millisecond
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, perr := strconv.Atoi(s); perr == nil && secs >= 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, retryAfter, out, nil
}

func (st *loadState) fail(msg string) {
	st.errors.Add(1)
	st.errMu.Lock()
	if st.firstErr == "" {
		st.firstErr = msg
	}
	st.errMu.Unlock()
}
