package serve

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"adrdedup"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
)

// loadTarget boots the service the way adrdedupd does (prefix-index
// candidates at θ = 0.8, 400 seed reports / 20 duplicate pairs / 400 training
// pairs) behind an httptest listener and returns it with its base URL.
func loadTarget(t *testing.T) (*Server, string) {
	t.Helper()
	boot := mustBootstrap(t, BootstrapConfig{
		SeedReports:    400,
		SeedDuplicates: 20,
		TrainPairs:     400,
		Seed:           3,
		Detector: adrdedup.Options{
			Cluster:        cluster.Config{Executors: 8},
			Classifier:     core.Config{Seed: 3},
			Candidates:     adrdedup.CandidatePrefixIndex,
			CandidateTheta: 0.8,
		},
	})
	srv := New(boot.Detector, Config{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		closeServer(t, srv)
	})
	return srv, ts.URL
}

// TestRunLoadAgainstServer drives the adrload client code at a live server
// over HTTP, in both of RunLoad's modes.
func TestRunLoadAgainstServer(t *testing.T) {
	// An exact count: every report lands exactly once, nothing errors,
	// duplicates are found, and the server's counters agree with the
	// client's.
	t.Run("count", func(t *testing.T) {
		srv, url := loadTarget(t)
		res, err := RunLoad(context.Background(), LoadConfig{
			BaseURL:   url,
			BatchSize: 200,
			Count:     2000,
			Traffic:   TrafficConfig{Seed: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		st := srv.Stats()
		if res.Sent != 2000 || res.Errors != 0 {
			t.Fatalf("load sent=%d errors=%d (first: %s), want 2000/0", res.Sent, res.Errors, res.FirstError)
		}
		if st.Ingested != 2000 {
			t.Errorf("server ingested %d, want 2000", st.Ingested)
		}
		if res.Matched == 0 {
			t.Error("sustained ingest flagged no duplicates; the run would be vacuous")
		}
		if res.Matched != st.Matched {
			t.Errorf("client saw %d matches, server counted %d", res.Matched, st.Matched)
		}
		if st.DatabaseReports != 400+2000 {
			t.Errorf("final database %d reports, want %d", st.DatabaseReports, 2400)
		}
		if res.Latency.P99MS <= 0 || res.Reports <= 0 {
			t.Errorf("degenerate load metrics: p99=%.2fms throughput=%.0f/s", res.Latency.P99MS, res.Reports)
		}
	})

	// Duration only, with a stream far shorter than the run: the stream is
	// replayed in laps, and the "L<lap>-" re-prefixing must keep every case
	// number unique — a collision would be refused by the database and
	// counted as an error.
	t.Run("lapped", func(t *testing.T) {
		srv, url := loadTarget(t)
		const stream = 40
		res, err := RunLoad(context.Background(), LoadConfig{
			BaseURL:   url,
			Workers:   2,
			BatchSize: 10,
			Duration:  500 * time.Millisecond,
			Traffic:   TrafficConfig{Reports: stream, DupFraction: 0.2, Seed: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("lapped run hit %d errors (first: %s)", res.Errors, res.FirstError)
		}
		if res.Sent <= stream {
			t.Fatalf("sent %d reports of a %d-report stream; the run never lapped", res.Sent, stream)
		}
		if st := srv.Stats(); st.Ingested != res.Sent || st.DatabaseReports != 400+int(res.Sent) {
			t.Errorf("server ingested=%d database=%d, want %d and %d",
				st.Ingested, st.DatabaseReports, res.Sent, 400+res.Sent)
		}
	})
}
