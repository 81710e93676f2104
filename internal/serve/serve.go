// Package serve wraps a trained adrdedup.Detector in a long-running online
// ingest service: reports arrive continuously over HTTP (singles or
// batches), each arrival is checked against the live database through the
// detector's persistent candidate index (the shared interner and the
// append-only prefix-filtered index of internal/candgen), and the scored
// matches are returned to the submitter.
//
// The service is a bounded pipeline:
//
//	HTTP handler -> bounded queue -> one consumer -> Detector
//
// Handlers enqueue a job and wait for its result, so client-observed
// latency covers queueing plus scoring. The queue has a fixed depth; when
// it is full the submitter gets ErrQueueFull, which the HTTP layer turns
// into 429 with a Retry-After header — backpressure instead of collapse.
// One consumer goroutine owns the detector and runs Detect on the queued
// batches one after another: the detector is a single-driver pipeline (like
// a Spark driver submitting jobs in sequence), and the arrival order of the
// database is simply queue order. Parallelism lives inside each Detect, on
// the engine's task pool.
//
// Shutdown is a drain: Shutdown flips the server to draining (new submits
// are refused with ErrShuttingDown, HTTP 503), closes the queue, and waits
// for the consumer to finish every already-accepted batch, so no accepted
// report is ever dropped.
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"adrdedup"
	"adrdedup/internal/adr"
)

// Sentinel errors Submit returns; the HTTP layer maps them to status codes.
var (
	// ErrQueueFull signals backpressure: the ingest queue is at capacity.
	ErrQueueFull = errors.New("serve: ingest queue full")
	// ErrShuttingDown is returned once Shutdown has begun (or completed).
	ErrShuttingDown = errors.New("serve: server is shutting down")
	// ErrNotStarted is returned before Start.
	ErrNotStarted = errors.New("serve: server not started")
)

// Config tunes the serving pipeline. Zero values take defaults.
type Config struct {
	// Workers is ignored — kept only because the frozen bench/trace.go:211
	// and bench/workload.go:156 set it; the next [benchmark] PR deletes it
	// with cluster.Config.RealParallel. One consumer owns the detector.
	Workers int
	// QueueDepth bounds the ingest queue (default 64). A full queue
	// refuses new batches with ErrQueueFull / HTTP 429.
	QueueDepth int
	// MaxBatch bounds the reports per submitted batch (default 5000);
	// larger batches are refused with a 413-coded RequestError.
	MaxBatch int
	// MaxBodyBytes bounds an HTTP request body (default 8 MiB).
	MaxBodyBytes int64
	// RetryAfter is the Retry-After hint sent with 429/503 responses
	// (default 1s).
	RetryAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 5000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server states: New -> (Start) -> running -> (Shutdown) -> draining ->
// stopped. Submits are accepted only while running.
const (
	stateNew = iota
	stateRunning
	stateDraining
	stateStopped
)

func stateName(s int) string {
	switch s {
	case stateRunning:
		return "running"
	case stateDraining:
		return "draining"
	case stateStopped:
		return "stopped"
	default:
		return "new"
	}
}

// job is one queued ingest batch; done is buffered so the consumer never
// blocks on a submitter that gave up. dupsOnly asks for the duplicates only
// (the HTTP handler reads nothing else), so the consumer runs
// DetectDuplicates instead of Detect.
type job struct {
	batch    []adr.Report
	dupsOnly bool
	enqueued time.Time
	done     chan jobResult
}

// jobResult is a job's outcome: its matches (only the duplicates for a
// dupsOnly job) and the count of scored pairs.
type jobResult struct {
	matches []adrdedup.Match
	scored  int
	err     error
}

// Server is the online dedup service around one trained detector. Create
// with New, call Start, serve HTTP via Handler (or call Submit directly),
// and stop with Shutdown/Close.
type Server struct {
	cfg Config
	det *adrdedup.Detector

	// mu guards state against the queue lifecycle: submits hold it shared
	// while enqueueing, Shutdown holds it exclusively to flip the state
	// and close the queue, so a send can never race the close.
	mu    sync.RWMutex
	state int
	queue chan *job
	// done is closed once the server is stopped: by the consumer after it
	// drained the closed queue, or by Shutdown on a never-started server.
	done chan struct{}

	started time.Time
	hist    *Histogram

	ingested, batches, scored, matched  atomic.Uint64
	queueRejects, drainRefusals, failed atomic.Uint64

	// testHookBeforeDetect, when set, runs in the consumer just before each
	// Detect — the seam deterministic backpressure/drain tests use to
	// hold the consumer mid-batch.
	testHookBeforeDetect func()
}

// New creates a Server around a trained detector. The server does not own
// the detector's engine; Close tears both down for callers that want one
// lifecycle.
func New(det *adrdedup.Detector, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:  cfg,
		det:  det,
		hist: NewHistogram(),
		done: make(chan struct{}),
	}
}

// Start launches the consumer. Starting an already-started or stopped
// server is an error.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateNew {
		return errors.New("serve: Start on a " + stateName(s.state) + " server")
	}
	if !s.det.Trained() {
		return errors.New("serve: detector is not trained")
	}
	s.queue = make(chan *job, s.cfg.QueueDepth)
	s.state = stateRunning
	s.started = time.Now()
	go s.consume()
	registerExpvar(s)
	return nil
}

// Submit enqueues a batch and waits for its matches. It returns
// ErrQueueFull when the queue is at capacity, ErrShuttingDown once Shutdown
// began, a *RequestError for an invalid batch, or the Detect error (the
// detector rolls the batch back, so the same batch may be resubmitted). If
// ctx expires while the batch is queued or scoring, Submit returns the
// context error but the batch is still processed — accepted work is never
// dropped.
func (s *Server) Submit(ctx context.Context, batch []adr.Report) ([]adrdedup.Match, error) {
	matches, _, err := s.submit(ctx, batch, false)
	return matches, err
}

// submit is Submit, except that with dupsOnly the matches are the batch's
// duplicates only (adrdedup.Detector.DetectDuplicates); scored counts every
// scored pair either way.
func (s *Server) submit(ctx context.Context, batch []adr.Report, dupsOnly bool) (matches []adrdedup.Match, scored int, err error) {
	if len(batch) == 0 {
		return nil, 0, errEmptyBatch
	}
	if len(batch) > s.cfg.MaxBatch {
		return nil, 0, errBatchTooLarge(len(batch), s.cfg.MaxBatch)
	}
	j := &job{batch: batch, dupsOnly: dupsOnly, enqueued: time.Now(), done: make(chan jobResult, 1)}

	s.mu.RLock()
	switch s.state {
	case stateRunning:
	case stateNew:
		s.mu.RUnlock()
		return nil, 0, ErrNotStarted
	default:
		s.mu.RUnlock()
		s.drainRefusals.Add(1)
		return nil, 0, ErrShuttingDown
	}
	select {
	case s.queue <- j:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.queueRejects.Add(1)
		return nil, 0, ErrQueueFull
	}

	select {
	case r := <-j.done:
		return r.matches, r.scored, r.err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// consume is the one goroutine that touches the detector: it processes the
// queue in order and, once Shutdown closed it and it ran dry, stops the
// server.
func (s *Server) consume() {
	for j := range s.queue {
		s.process(j)
	}
	s.mu.Lock()
	s.state = stateStopped
	s.mu.Unlock()
	unregisterExpvar(s)
	close(s.done)
}

func (s *Server) process(j *job) {
	if hook := s.testHookBeforeDetect; hook != nil {
		hook()
	}
	var r jobResult
	if j.dupsOnly {
		r.matches, r.scored, r.err = s.det.DetectDuplicates(j.batch)
	} else {
		r.matches, r.err = s.det.Detect(j.batch)
		r.scored = len(r.matches)
	}
	s.hist.Observe(time.Since(j.enqueued))
	if r.err != nil {
		s.failed.Add(1)
		j.done <- r
		return
	}
	s.batches.Add(1)
	s.ingested.Add(uint64(len(j.batch)))
	s.scored.Add(uint64(r.scored))
	dups := 0
	for _, m := range r.matches {
		if m.Duplicate {
			dups++
		}
	}
	s.matched.Add(uint64(dups))
	j.done <- r
}

// Shutdown drains the server: new submits are refused immediately, every
// already-accepted batch completes, then Shutdown returns nil. If ctx
// expires first it returns ctx.Err() while the drain continues in the
// background; a later Shutdown call waits for it again.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	switch s.state {
	case stateRunning:
		s.state = stateDraining
		close(s.queue)
	case stateNew:
		s.state = stateStopped
		close(s.done)
	}
	s.mu.Unlock()

	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the server and then closes the detector's engine. For callers
// that gave the server sole ownership of the detector.
func (s *Server) Close(ctx context.Context) error {
	err := s.Shutdown(ctx)
	s.det.Engine().Cluster().Close()
	return err
}

// Detector exposes the wrapped detector, for stats and model export. The
// caller must not call detection methods on it while the server runs.
func (s *Server) Detector() *adrdedup.Detector { return s.det }

// Stats is the live counter snapshot behind /v1/stats and /debug/vars.
type Stats struct {
	// State is new, running, draining, or stopped.
	State         string  `json:"state"`
	UptimeSeconds float64 `json:"uptimeSeconds"`

	QueueDepth int `json:"queueDepth"`
	QueueCap   int `json:"queueCap"`

	// Ingested counts absorbed reports; Batches the absorbed batches;
	// Scored the candidate pairs scored; Matched the pairs flagged
	// duplicate.
	Ingested uint64 `json:"ingested"`
	Batches  uint64 `json:"batches"`
	Scored   uint64 `json:"scored"`
	Matched  uint64 `json:"matched"`

	// QueueFullRejects counts submits refused with 429, DrainRefusals
	// submits refused during/after shutdown, FailedBatches batches whose
	// Detect errored (and rolled back).
	QueueFullRejects uint64 `json:"queueFullRejects"`
	DrainRefusals    uint64 `json:"drainRefusals"`
	FailedBatches    uint64 `json:"failedBatches"`

	// DatabaseReports is the live database size (seed + ingested).
	DatabaseReports int `json:"databaseReports"`

	// Latency is the enqueue-to-scored batch latency distribution.
	Latency LatencySummary `json:"latency"`
}

// Stats snapshots the live counters.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	state := s.state
	started := s.started
	depth := len(s.queue) // nil before Start; batches stay queued while draining
	s.mu.RUnlock()
	st := Stats{
		State:            stateName(state),
		QueueDepth:       depth,
		QueueCap:         s.cfg.QueueDepth,
		Ingested:         s.ingested.Load(),
		Batches:          s.batches.Load(),
		Scored:           s.scored.Load(),
		Matched:          s.matched.Load(),
		QueueFullRejects: s.queueRejects.Load(),
		DrainRefusals:    s.drainRefusals.Load(),
		FailedBatches:    s.failed.Load(),
		DatabaseReports:  s.det.Database().Len(),
		Latency:          s.hist.Summary(),
	}
	if !started.IsZero() {
		st.UptimeSeconds = time.Since(started).Seconds()
	}
	return st
}
