// Command adrload is the traffic driver for adrdedupd: it pregenerates a
// deterministic synthetic report stream (same TGA profile as the seed
// corpus, campaign clustering disabled, case numbers namespaced so they
// never collide with the daemon's seed database) and pushes it at the
// service from concurrent workers, reporting throughput and latency
// percentiles as it goes.
//
// Usage:
//
//	adrload -addr http://127.0.0.1:8080
//	        [-workers 4] [-batch-size 100] [-push-interval 0]
//	        [-count 0] [-duration 0]
//	        [-report-interval 5s] [-seed 1] [-dup-fraction 0.02]
//	        [-case-prefix LOAD] [-timeout 60s] [-summary-json out.json]
//
// At least one of -count (total reports, exact) or -duration (wall clock)
// must be set; the run stops at whichever limit is hit first. Each worker
// sends batches back-to-back, pausing -push-interval between sends (bunched,
// open-loop arrivals are the bench harness's serve_open workload).
//
// 429/503 responses are retried after the server's Retry-After hint and
// counted as "throttled", not as errors. The process exits 1 if any request
// ultimately failed, so CI smokes can assert a zero-error run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adrdedup/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adrload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adrload", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "service base URL")
	workers := fs.Int("workers", 4, "concurrent submitter goroutines")
	batchSize := fs.Int("batch-size", 100, "reports per request (1 uses the single-report endpoint)")
	pushInterval := fs.Duration("push-interval", 0, "per-worker pause between sends (0 = as fast as the service admits)")
	count := fs.Int("count", 0, "total reports to send (0 = unbounded, requires -duration)")
	duration := fs.Duration("duration", 0, "wall-clock bound on the run (0 = unbounded, requires -count)")
	reportInterval := fs.Duration("report-interval", 5*time.Second, "progress report period (0 = no progress reports)")
	seed := fs.Int64("seed", 1, "deterministic traffic seed")
	dupFraction := fs.Float64("dup-fraction", 0.02, "share of stream reports belonging to an injected duplicate pair")
	casePrefix := fs.String("case-prefix", "LOAD", "case-number namespace of the stream")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request HTTP timeout")
	summaryJSON := fs.String("summary-json", "", "also write the final summary as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *count <= 0 && *duration <= 0 {
		return fmt.Errorf("set -count and/or -duration (run 'adrload -h' for usage)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	cfg := serve.LoadConfig{
		BaseURL:      strings.TrimRight(*addr, "/"),
		Workers:      *workers,
		BatchSize:    *batchSize,
		PushInterval: *pushInterval,
		Duration:     *duration,
		Count:        *count,
		Traffic: serve.TrafficConfig{
			DupFraction: *dupFraction,
			Seed:        *seed,
			CasePrefix:  *casePrefix,
		},
		ReportEvery: *reportInterval,
		Client:      &http.Client{Timeout: *timeout},
		OnReport: func(s serve.LoadSnapshot) {
			fmt.Fprintf(os.Stderr,
				"adrload: t=%s sent=%d errors=%d throttled=%d matched=%d rate=%.0f/s p50=%.1fms p95=%.1fms p99=%.1fms\n",
				s.Elapsed.Round(time.Second), s.Sent, s.Errors, s.Throttled, s.Matched,
				s.IntervalThroughput, s.Latency.P50MS, s.Latency.P95MS, s.Latency.P99MS)
		},
	}

	fmt.Fprintf(os.Stderr, "adrload: %d workers, batch %d -> %s\n",
		cfg.Workers, cfg.BatchSize, cfg.BaseURL)
	res, err := serve.RunLoad(ctx, cfg)
	if err != nil && err != context.Canceled {
		return err
	}

	fmt.Printf("adrload: sent=%d batches=%d errors=%d throttled=%d matched=%d scored=%d throughput=%.0f/s p50=%.1fms p95=%.1fms p99=%.1fms max=%.1fms\n",
		res.Sent, res.Batches, res.Errors, res.Throttled, res.Matched, res.Scored,
		res.Reports, res.Latency.P50MS, res.Latency.P95MS, res.Latency.P99MS, res.Latency.MaxMS)
	if res.FirstError != "" {
		fmt.Fprintln(os.Stderr, "adrload: first error:", res.FirstError)
	}
	if *summaryJSON != "" {
		data, jerr := json.MarshalIndent(res, "", "  ")
		if jerr != nil {
			return jerr
		}
		if werr := os.WriteFile(*summaryJSON, append(data, '\n'), 0o644); werr != nil {
			return werr
		}
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d requests failed", res.Errors)
	}
	return nil
}
