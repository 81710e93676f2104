package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"adrdedup"
	"adrdedup/internal/adr"
	"adrdedup/internal/adrgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
	"adrdedup/internal/serve"
)

// workload is one traffic mix the benchmark runs. Sizes are chosen so that a
// 10 s measured window on 2 cores yields at least 200 requests on the daemon
// workloads; see README.md for why each one exists.
type workload struct {
	Name string
	Why  string
	// Daemon workloads exec adrdedupd and talk HTTP; the library workload
	// execs this binary in sut-batch mode and calls Detector.Detect.
	Daemon bool
	// SeedReports is the database size before the measured phase;
	// CandTheta the candidate signature-Jaccard threshold.
	SeedReports int
	CandTheta   float64
	// PerRequest is reports per HTTP request (or per Detect call); Path the
	// ingest endpoint.
	PerRequest int
	Path       string
	// Open selects an open loop at Rate mean arrivals/s; otherwise Clients
	// closed-loop callers send back to back.
	Open    bool
	Rate    float64
	Clients int
	// MaxRate bounds requests/s a closed loop could plausibly reach; it only
	// sizes the pre-generated traffic (3x today's rate), never paces it.
	MaxRate float64
	// SLO is the latency limit behind slo_met_share, about twice the
	// workload's 95th percentile on the 2-core reference host.
	SLO time.Duration
}

var workloads = []workload{
	{
		Name:        "batch_detect",
		Why:         "library path, 250-report Detect calls against 10k reports at cand-theta 0.5: kNN classify dominates, serve is absent",
		SeedReports: 10000, CandTheta: 0.5, PerRequest: 250, Clients: 1, MaxRate: 3,
		SLO: 1500 * time.Millisecond,
	},
	{
		Name:   "serve_open",
		Why:    "daemon, open loop 25 req/s Poisson of 5-report batches against 2k reports at cand-theta 0.8: per-call index rebuild and queueing set latency",
		Daemon: true, SeedReports: 2000, CandTheta: 0.8, PerRequest: 5, Path: "/v1/reports:batch",
		Open: true, Rate: 25,
		SLO: 100 * time.Millisecond,
	},
	{
		Name:   "serve_singles",
		Why:    "daemon, 2 closed-loop clients posting single reports against 2k reports at cand-theta 0.8: per-Detect fixed costs paid per report",
		Daemon: true, SeedReports: 2000, CandTheta: 0.8, PerRequest: 1, Path: "/v1/reports",
		Clients: 2, MaxRate: 400,
		SLO: 75 * time.Millisecond,
	},
	{
		Name:   "serve_mixed",
		Why:    "daemon, 2 closed-loop clients posting 10-report batches against 3k reports at cand-theta 0.5: classify, candidates and serving all matter",
		Daemon: true, SeedReports: 3000, CandTheta: 0.5, PerRequest: 10, Path: "/v1/reports:batch",
		Clients: 2, MaxRate: 120,
		SLO: 250 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quick shrinks a workload to one tenth of its database for smoke runs, but
// not below 1000 reports: the bootstrap cannot sample its 1200 training pairs
// from a few hundred.
func (w workload) quick() workload {
	w.SeedReports = max(w.SeedReports/10, 1000)
	return w
}

// single reports whether requests go to the daemon's single-report endpoint,
// whose body is one report object rather than a batch.
func (w workload) single() bool { return w.Daemon && w.PerRequest == 1 }

// openConns is the open loop's connection pool. It has to exceed the number
// of requests ever in flight, or a due request waits for a connection and the
// loop is closed in all but name: with nproc = 2 connections, 20 req/s and a
// 20 ms service time, generator lag p95 measured 44 ms. Idle keep-alive
// connections cost the generator nothing.
const openConns = 16

// conns is the number of HTTP connections (one goroutine each) the generator
// uses: the closed-loop client count capped at nproc, or openConns.
func (w workload) conns(nproc int) int {
	if w.Open {
		return openConns
	}
	return min(w.Clients, nproc)
}

// numRequests is how many requests to pre-generate for a measured window.
func (w workload) numRequests(window time.Duration) int {
	rate := w.MaxRate
	if w.Open {
		rate = w.Rate
	}
	n := int(math.Ceil(rate * window.Seconds()))
	if n < 2 {
		n = 2
	}
	return n
}

// databaseSeed generates the database the system starts with and the pairs
// its classifier trains on. It is a constant: the database is the state the
// workload runs against, --seed draws the traffic sent at it. One database is
// one draw, which nothing in a run averages out; with a database per seed,
// reports_per_s moved 2 to 3 times as much between seeds as between runs of
// one seed.
const databaseSeed = 1

// bootstrapConfig is the detector configuration shared by the daemon's flags,
// the sut-batch child, the reference replay and the traced replay, so all four
// build the same detector.
func (w workload) bootstrapConfig() serve.BootstrapConfig {
	return serve.BootstrapConfig{
		SeedReports:    w.SeedReports,
		SeedDuplicates: w.SeedReports / 25,
		Seed:           databaseSeed,
		Detector: adrdedup.Options{
			Cluster:        cluster.Config{Executors: 8},
			Classifier:     core.Config{Seed: databaseSeed},
			Candidates:     adrdedup.CandidatePrefixIndex,
			CandidateTheta: w.CandTheta,
		},
	}
}

// daemonArgs spells bootstrapConfig as adrdedupd flags.
func (w workload) daemonArgs() []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-workers", "2", "-queue-depth", "64", "-executors", "8", "-engine-workers", "0",
		"-candidates", "prefix-index",
		"-seed-reports", fmt.Sprint(w.SeedReports),
		"-seed-dups", fmt.Sprint(w.SeedReports / 25),
		"-cand-theta", fmt.Sprint(w.CandTheta),
		"-seed", fmt.Sprint(databaseSeed),
	}
}

// request is one pre-encoded unit of traffic: an HTTP body for the daemon
// workloads, and the same reports as a Detect batch for the library one.
type request struct {
	body    []byte
	reports []adr.Report
}

// pairKey identifies an unordered report pair by case numbers.
type pairKey [2]string

func makePair(a, b string) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// inputs is everything a run feeds the system, generated from the seed before
// any clock starts.
type inputs struct {
	requests []request
	// truth holds the injected duplicate pairs of the traffic.
	truth map[pairKey]bool
}

// trafficChunk is the number of reports generated per adrgen corpus. Traffic
// is a concatenation of independent chunks so that both halves of every
// injected pair lie close together: a run that consumes only a prefix of the
// stream still sends complete pairs.
const trafficChunk = 500

// generateInputs builds n requests of w.PerRequest reports. Like
// serve.GenerateTraffic it disables campaigns, puts 2 % of reports in injected
// duplicate pairs and prefixes case numbers with LOAD-, but it keeps the
// ground truth.
func generateInputs(w workload, seed int64, n int) (*inputs, error) {
	total := n * w.PerRequest
	in := &inputs{truth: make(map[pairKey]bool)}
	var stream []adr.Report
	for chunk := 0; len(stream) < total; chunk++ {
		corpus := adrgen.Generate(adrgen.Config{
			NumReports:       trafficChunk,
			DuplicatePairs:   trafficChunk / 100,
			Seed:             seed*7919 + int64(chunk) + 1,
			CampaignFraction: -1,
		})
		prefix := fmt.Sprintf("LOAD-%d-", chunk)
		for _, r := range corpus.Reports {
			r.CaseNumber = prefix + r.CaseNumber
			r.ArrivalSeq = 0
			stream = append(stream, r)
		}
		for _, d := range corpus.Duplicates {
			in.truth[makePair(prefix+d.CaseA, prefix+d.CaseB)] = true
		}
	}
	for i := 0; i < n; i++ {
		reports := stream[i*w.PerRequest : (i+1)*w.PerRequest]
		var body []byte
		var err error
		if w.single() {
			body, err = json.Marshal(reports[0])
		} else {
			body, err = json.Marshal(map[string][]adr.Report{"reports": reports})
		}
		if err != nil {
			return nil, fmt.Errorf("encoding request %d: %w", i, err)
		}
		in.requests = append(in.requests, request{body: body, reports: reports})
	}
	return in, nil
}
