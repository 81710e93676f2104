package serve

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"adrdedup"
	"adrdedup/internal/adr"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
)

// testBootCfg is a small deterministic bootstrap sized for unit tests:
// identical seeds give bit-identical detectors, which the oracle tests rely
// on. The prefix index at θ = 0.25 keeps candidate volume meaningful on a
// tiny corpus: a few dozen scored pairs per report.
func testBootCfg(seed int64, seedReports, seedDups, trainPairs int) BootstrapConfig {
	return BootstrapConfig{
		SeedReports:    seedReports,
		SeedDuplicates: seedDups,
		TrainPairs:     trainPairs,
		Seed:           seed,
		Detector: adrdedup.Options{
			Cluster:        cluster.Config{Executors: 4},
			Classifier:     core.Config{K: 5, B: 6, C: 3, Seed: seed},
			Candidates:     adrdedup.CandidatePrefixIndex,
			CandidateTheta: 0.25,
		},
	}
}

func mustBootstrap(t testing.TB, cfg BootstrapConfig) *Bootstrap {
	t.Helper()
	boot, err := NewBootstrap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return boot
}

// closeServer drains and closes a server with a generous deadline.
func closeServer(t testing.TB, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentIngestMatchesSequentialOracle is the -race stress test:
// many goroutines push singles and batches through the live server, then the
// arrival order is read back from the detector's database and replayed
// sequentially on a fresh identical bootstrap. Each submitted batch must have
// been absorbed once, whole and in order, and the match sets and committed
// engine counters must be exactly equal — concurrency may reorder arrivals
// but must never change what a given arrival order detects.
func TestConcurrentIngestMatchesSequentialOracle(t *testing.T) {
	cfg := testBootCfg(7, 250, 12, 300)
	boot := mustBootstrap(t, cfg)
	seedLen := boot.Detector.Database().Len()
	srv := New(boot.Detector, Config{QueueDepth: 8})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	traffic := GenerateTraffic(TrafficConfig{Reports: 90, DupFraction: 0.2, Seed: 11})
	rng := rand.New(rand.NewSource(3))
	var batches [][]adr.Report
	for i := 0; i < len(traffic); {
		n := 1 + rng.Intn(8) // mix singles with batches
		if i+n > len(traffic) {
			n = len(traffic) - i
		}
		batches = append(batches, traffic[i:i+n])
		i += n
	}

	work := make(chan []adr.Report)
	var mu sync.Mutex
	var got []adrdedup.Match
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				for {
					matches, err := srv.Submit(context.Background(), b)
					if errors.Is(err, ErrQueueFull) {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					got = append(got, matches...)
					mu.Unlock()
					break
				}
			}
		}()
	}
	for _, b := range batches {
		work <- b
	}
	close(work)
	wg.Wait()
	closeServer(t, srv)
	if t.Failed() {
		t.FailNow()
	}

	// The database holds the absorbed reports in arrival order; group them
	// back into the submitted batches.
	batchOf := make(map[string]int, len(traffic))
	for bi, b := range batches {
		for _, r := range b {
			batchOf[r.CaseNumber] = bi
		}
	}
	tail := boot.Detector.Database().Tail(seedLen)
	if len(tail) != len(traffic) {
		t.Fatalf("database absorbed %d reports, want %d", len(tail), len(traffic))
	}
	absorbed := make([]bool, len(batches))
	var arrivals [][]adr.Report
	for i := 0; i < len(tail); {
		bi, ok := batchOf[tail[i].CaseNumber]
		if !ok || absorbed[bi] {
			t.Fatalf("arrival %d (%s) does not start an unabsorbed batch", i, tail[i].CaseNumber)
		}
		absorbed[bi] = true
		for j, r := range batches[bi] {
			if i+j >= len(tail) || tail[i+j].CaseNumber != r.CaseNumber {
				t.Fatalf("batch %d not absorbed whole and in order at arrival %d", bi, i)
			}
		}
		arrivals = append(arrivals, batches[bi])
		i += len(batches[bi])
	}

	// Sequential oracle: fresh identical bootstrap, same arrival order.
	oracle := mustBootstrap(t, cfg)
	defer oracle.Detector.Engine().Cluster().Close()
	var want []adrdedup.Match
	for _, batch := range arrivals {
		m, err := oracle.Detector.Detect(batch)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, m...)
	}

	SortMatches(got)
	SortMatches(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent ingest match set (%d) diverges from sequential oracle replay (%d)",
			len(got), len(want))
	}
	if len(adrdedup.Duplicates(got)) == 0 {
		t.Fatal("no duplicates flagged; oracle comparison would be vacuous")
	}
	// One Detect per batch: the engine work the server committed equals
	// the replay's, stage for stage.
	if g, w := boot.Detector.Metrics(), oracle.Detector.Metrics(); g != w {
		t.Fatalf("server committed engine counters %+v, sequential replay %+v", g, w)
	}
}

// TestIngestPartitioningProperty: however a stream is partitioned into
// batches, the service detects the same match set as one-shot Detect over
// the whole stream. Per-pair classification depends only on the pair and the
// trained model, never on batch boundaries — this is the property that makes
// the online service equivalent to the paper's batch pipeline.
func TestIngestPartitioningProperty(t *testing.T) {
	cfg := testBootCfg(9, 250, 12, 300)
	traffic := GenerateTraffic(TrafficConfig{Reports: 60, DupFraction: 0.2, Seed: 13})

	ref := mustBootstrap(t, cfg)
	want, err := ref.Detector.Detect(traffic)
	ref.Detector.Engine().Cluster().Close()
	if err != nil {
		t.Fatal(err)
	}
	SortMatches(want)
	if len(adrdedup.Duplicates(want)) == 0 {
		t.Fatal("one-shot reference found no duplicates; property would be vacuous")
	}

	prop := func(seed int64) bool {
		boot := mustBootstrap(t, cfg)
		srv := New(boot.Detector, Config{QueueDepth: 8})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var got []adrdedup.Match
		for i := 0; i < len(traffic); {
			n := 1 + rng.Intn(len(traffic)-i)
			m, err := srv.Submit(context.Background(), traffic[i:i+n])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, m...)
			i += n
		}
		closeServer(t, srv)
		SortMatches(got)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(prop, &quick.Config{
		MaxCount: 4,
		Rand:     rand.New(rand.NewSource(1)),
	}); err != nil {
		t.Fatalf("a batch partitioning changed the match set: %v", err)
	}
}

// TestServerGoroutineLeak pins the full lifecycle against goroutine leaks:
// repeated bootstrap / start / ingest / drain / close cycles must return the
// process to its baseline goroutine count (the consumer exits on queue close,
// the engine pool stops on Close).
func TestServerGoroutineLeak(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	traffic := GenerateTraffic(TrafficConfig{Reports: 20, DupFraction: 0.2, Seed: 17})
	for i := int64(0); i < 2; i++ {
		boot := mustBootstrap(t, testBootCfg(21+i, 120, 6, 150))
		srv := New(boot.Detector, Config{QueueDepth: 4})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Submit(context.Background(), traffic[:10]); err != nil {
			t.Fatal(err)
		}
		closeServer(t, srv)
	}

	if n := settleGoroutines(baseline + 2); n > baseline+2 {
		t.Fatalf("goroutines leaked: %d live, baseline %d (+2 tolerance)", n, baseline)
	}
}

// settleGoroutines gives exiting goroutines up to two seconds to bring the
// live count down to max, and returns the last count it saw.
func settleGoroutines(max int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= max || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}
