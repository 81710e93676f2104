package experiments

import (
	"testing"
)

// TestServeExhibitShape runs the serving exhibit at reduced scale and pins
// its claims: every report lands exactly once, nothing errors, duplicates
// are found, and the server's counters agree with the client's.
func TestServeExhibitShape(t *testing.T) {
	res, err := ServeLoad(ServeParams{
		SeedReports: 400, SeedDuplicates: 20, TrainPairs: 400,
		Reports: 2000, BatchSize: 200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Load.Sent != 2000 || res.Load.Errors != 0 {
		t.Fatalf("load sent=%d errors=%d, want 2000/0", res.Load.Sent, res.Load.Errors)
	}
	if res.Stats.Ingested != 2000 {
		t.Errorf("server ingested %d, want 2000", res.Stats.Ingested)
	}
	if res.Load.Matched == 0 {
		t.Error("sustained ingest flagged no duplicates; exhibit would be vacuous")
	}
	if res.Load.Matched != res.Stats.Matched {
		t.Errorf("client saw %d matches, server counted %d", res.Load.Matched, res.Stats.Matched)
	}
	if res.Stats.DatabaseReports != 400+2000 {
		t.Errorf("final database %d reports, want %d", res.Stats.DatabaseReports, 2400)
	}
	if res.Load.Latency.P99MS <= 0 || res.Load.Reports <= 0 {
		t.Errorf("degenerate exhibit metrics: p99=%.2fms throughput=%.0f/s",
			res.Load.Latency.P99MS, res.Load.Reports)
	}
}

// BenchmarkServeSustained runs the serving exhibit under `go test -bench`: a
// 30k-report stream pushed over HTTP at the bootstrapped service, reporting
// end-to-end ingest throughput and client-observed latency percentiles.
func BenchmarkServeSustained(b *testing.B) {
	var res ServeResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ServeLoad(ServeParams{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Load.Sent), "reports")
	b.ReportMetric(res.Load.Reports, "reports/s")
	b.ReportMetric(res.Load.Latency.P50MS, "p50-ms")
	b.ReportMetric(res.Load.Latency.P95MS, "p95-ms")
	b.ReportMetric(res.Load.Latency.P99MS, "p99-ms")
	b.ReportMetric(float64(res.Load.Matched), "matched")
	b.ReportMetric(float64(res.Stats.QueueFullRejects), "throttled-429s")
	b.ReportMetric(res.SeedDuration.Seconds(), "seed-s")
	b.ReportMetric(res.TrainDuration.Seconds(), "train-s")
}
