// Command adrdedupd is the online duplicate-detection daemon: it bootstraps
// a synthetic seed database, trains the Fast kNN classifier on pairs sampled
// from the seed's ground truth, and then serves continuous report ingestion
// over HTTP. Each arriving report or batch is checked against the live
// database through the detector's incremental candidate index and the scored
// matches are returned to the submitter.
//
// Usage:
//
//	adrdedupd [-addr 127.0.0.1:8080]
//	          [-queue-depth 64] [-max-batch 5000]
//	          [-seed-reports 2000] [-seed-dups 80] [-train-pairs 1200] [-seed 1]
//	          [-candidates prefix-index] [-cand-theta 0] [-k 0] [-b 0] [-theta 0]
//	          [-executors 8] [-engine-workers 0]
//	          [-drain-timeout 30s]
//
// Endpoints:
//
//	POST /v1/reports        ingest one report object
//	POST /v1/reports:batch  ingest {"reports": [...]} or a bare array
//	GET  /v1/stats          live counters + latency percentiles (JSON)
//	GET  /healthz           200 while running, 503 otherwise
//	GET  /debug/vars        expvar, including the "adrdedupd" stats var
//
// A full ingest queue answers 429 with a Retry-After header (backpressure
// instead of collapse). SIGTERM/SIGINT triggers a graceful drain: the
// listener stops accepting, every already-accepted batch completes, and the
// process exits 0. -addr supports port 0; the chosen address is printed as
// "adrdedupd: listening on http://HOST:PORT" on stdout so harnesses can
// parse it.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adrdedup"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
	"adrdedup/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adrdedupd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adrdedupd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	fs.Int("workers", 2, "ignored — kept only because the frozen bench/workload.go:156 passes it; the next [benchmark] PR deletes it with serve.Config.Workers")
	queueDepth := fs.Int("queue-depth", 64, "ingest queue capacity; a full queue answers 429")
	maxBatch := fs.Int("max-batch", 5000, "max reports per submitted batch")
	seedReports := fs.Int("seed-reports", 2000, "synthetic seed database size")
	seedDups := fs.Int("seed-dups", 80, "injected duplicate pairs in the seed database")
	trainPairs := fs.Int("train-pairs", 1200, "labelled pairs sampled from the seed's ground truth for training")
	seed := fs.Int64("seed", 1, "deterministic bootstrap seed")
	candidates := fs.String("candidates", "prefix-index", "candidate strategy: brute-force or prefix-index")
	candTheta := fs.Float64("cand-theta", 0, "signature Jaccard threshold for prefix-index candidates (0 = default)")
	k := fs.Int("k", 0, "kNN neighbor count (0 = default)")
	b := fs.Int("b", 0, "kNN cluster count (0 = default)")
	theta := fs.Float64("theta", 0, "duplicate probability threshold (0 = default)")
	executors := fs.Int("executors", 8, "engine executors")
	engineWorkers := fs.Int("engine-workers", 0, "engine pool size: stage tasks computing at once (0 = NumCPU)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight batches on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var strategy adrdedup.CandidateStrategy
	switch *candidates {
	case "brute-force":
		strategy = adrdedup.CandidateBruteForce
	case "prefix-index":
		strategy = adrdedup.CandidatePrefixIndex
	default:
		return fmt.Errorf("unknown -candidates strategy %q (want brute-force or prefix-index)", *candidates)
	}

	fmt.Fprintf(os.Stderr, "adrdedupd: bootstrapping (%d seed reports, %d dup pairs, %d training pairs, seed %d)\n",
		*seedReports, *seedDups, *trainPairs, *seed)
	boot, err := serve.NewBootstrap(serve.BootstrapConfig{
		SeedReports:    *seedReports,
		SeedDuplicates: *seedDups,
		TrainPairs:     *trainPairs,
		Seed:           *seed,
		Detector: adrdedup.Options{
			Cluster: cluster.Config{
				Executors:   *executors,
				RealWorkers: *engineWorkers,
			},
			Classifier:     core.Config{K: *k, B: *b, Theta: *theta, Seed: *seed},
			Candidates:     strategy,
			CandidateTheta: *candTheta,
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "adrdedupd: seeded %d reports in %v, trained in %v\n",
		boot.Detector.Database().Len(), boot.SeedDuration.Round(time.Millisecond),
		boot.TrainDuration.Round(time.Millisecond))

	srv := serve.New(boot.Detector, serve.Config{
		QueueDepth: *queueDepth,
		MaxBatch:   *maxBatch,
	})
	if err := srv.Start(); err != nil {
		boot.Detector.Engine().Cluster().Close()
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		_ = srv.Close(shutdownCtx)
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	// The listening line goes to stdout so scripts can parse the bound port.
	fmt.Printf("adrdedupd: listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "adrdedupd: %v: draining\n", sig)
	case err := <-serveErr:
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		_ = srv.Close(shutdownCtx)
		return fmt.Errorf("http server: %w", err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting new connections and wait for in-flight requests; the
	// pipeline drain below finishes every batch those requests enqueued.
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "adrdedupd: http shutdown:", err)
	}
	if err := srv.Close(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "adrdedupd: drained: ingested=%d batches=%d matched=%d\n",
		st.Ingested, st.Batches, st.Matched)
	return nil
}
