package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"adrdedup"
	"adrdedup/internal/adr"
	"adrdedup/internal/adrgen"
	"adrdedup/internal/candgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
	"adrdedup/internal/intern"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
	"adrdedup/internal/serve"
)

// span is one timed call into a layer's public API, recorded from this
// package. Spans of one request share ID; Parent names the enclosing span of
// the same request ("" for a root). Times are nanoseconds since the trace
// began.
type span struct {
	Name    string           `json:"name"`
	ID      int              `json:"id"`
	Parent  string           `json:"parent,omitempty"`
	StartNS int64            `json:"startNS"`
	EndNS   int64            `json:"endNS"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

// timed runs f inside a span and returns how long it took.
func (r *recorder) timed(id int, name, parent string, f func() (map[string]int64, error)) (time.Duration, error) {
	start := time.Now()
	counts, err := f()
	end := time.Now()
	r.spans = append(r.spans, span{
		Name: name, ID: id, Parent: parent,
		StartNS: int64(start.Sub(r.t0)), EndNS: int64(end.Sub(r.t0)), Counts: counts,
	})
	return end.Sub(start), err
}

// selfTimes sums, per span name, duration minus the duration of the spans
// that name it as their parent within the same request.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct {
		id   int
		name string
	}
	children := make(map[key]int64)
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.ID, s.Parent}] += s.EndNS - s.StartNS
		}
	}
	self := make(map[string]time.Duration)
	seen := make(map[key]bool)
	for _, s := range spans {
		d := s.EndNS - s.StartNS
		if k := (key{s.ID, s.Name}); !seen[k] {
			seen[k] = true
			d -= children[k]
		}
		self[s.Name] += time.Duration(d)
	}
	return self
}

// shadow is a second pipeline assembled only from the layers' public
// functions. It ingests the same reports as the Detector, one request behind,
// so each layer can be timed on exactly the inputs Detect just processed.
type shadow struct {
	cl    *cluster.Cluster
	ctx   *rdd.Context
	it    *intern.Interner
	db    *adr.Database
	feats []pairdist.Features
	clf   *core.Classifier
	theta float64
	parts int

	// clf1 is the same model on a one-worker engine, for speedup_nproc.
	cl1  *cluster.Cluster
	ctx1 *rdd.Context
	clf1 *core.Classifier

	trainTime time.Duration
}

// newShadow repeats serve.NewBootstrap layer by layer on the bootstrap's own
// corpus: extract, sample the same labelled pairs, vectorize, train.
func newShadow(boot *serve.Bootstrap) (*shadow, error) {
	cfg := boot.Config
	ccfg := cfg.Detector.Cluster
	ccfg.RealParallel = true
	sh := &shadow{cl: cluster.New(ccfg), it: intern.New(), db: adr.NewDatabase(), theta: cfg.Detector.CandidateTheta}
	sh.ctx = rdd.NewContext(sh.cl)
	sh.parts = sh.ctx.DefaultParallelism()
	ccfg.RealWorkers = 1
	sh.cl1 = cluster.New(ccfg)
	sh.ctx1 = rdd.NewContext(sh.cl1)

	if err := sh.db.Add(boot.Corpus.Reports...); err != nil {
		sh.close()
		return nil, fmt.Errorf("shadow: seeding database: %w", err)
	}
	feats, err := pairdist.ExtractAllWith(sh.ctx, sh.it, sh.db.Reports(), sh.parts)
	if err != nil {
		sh.close()
		return nil, fmt.Errorf("shadow: extracting seed features: %w", err)
	}
	sh.feats = feats
	labelled, err := boot.Corpus.SamplePairs(adrgen.PairSampleOptions{
		Total: cfg.TrainPairs, HardFraction: cfg.HardFraction, Seed: cfg.Seed + 1,
	})
	if err != nil {
		sh.close()
		return nil, fmt.Errorf("shadow: sampling training pairs: %w", err)
	}
	ids := make([]pairdist.IDPair, len(labelled))
	for i, p := range labelled {
		ids[i] = pairdist.IDPair{A: p.A, B: p.B, Label: p.Label}
	}
	recs, err := pairdist.ComputeVectors(sh.ctx, sh.feats, ids, sh.parts)
	if err != nil {
		sh.close()
		return nil, fmt.Errorf("shadow: vectorizing training pairs: %w", err)
	}
	training := make([]core.TrainingPair, len(recs))
	for i, r := range recs {
		training[i] = core.TrainingPair{Vec: r.Vec, Label: r.Label}
	}
	start := time.Now()
	sh.clf, err = core.Train(sh.ctx, training, cfg.Detector.Classifier)
	sh.trainTime = time.Since(start)
	if err == nil {
		sh.clf1, err = core.Train(sh.ctx1, training, cfg.Detector.Classifier)
	}
	if err != nil {
		sh.close()
		return nil, fmt.Errorf("shadow: training: %w", err)
	}
	return sh, nil
}

func (sh *shadow) close() {
	sh.cl.Close()
	sh.cl1.Close()
}

// tracedRequest is the per-request record the layer metrics are computed from.
type tracedRequest struct {
	path    int // 0 Detector.Detect, 1 Server.Submit, 2 Server.Handler
	reports int
	pairs   int
	// decode, service and encode time the request itself; service is the
	// Detect, Submit or handler call according to path.
	decode, service, encode time.Duration
	// The probes time the shadow pipeline on the same reports: dbAdd and
	// dbSnapshot are the adr.Database calls Detect makes around the stages.
	dbAdd, dbSnapshot, extract, signatures, candPairs, vectorize, classify time.Duration
	cand                                                                   candgen.Stats
	cls                                                                    core.Stats
	engine                                                                 cluster.MetricsSnapshot // Detector engine counters, delta over service
}

func (t tracedRequest) probes() time.Duration {
	return t.dbAdd + t.dbSnapshot + t.extract + t.signatures + t.candPairs + t.vectorize + t.classify
}

type traceResult struct {
	requests      []tracedRequest
	spans         []span
	trainTime     time.Duration
	stageOverhead time.Duration
	speedup       float64 // 0 when no request had enough pairs to measure
	mem           struct{ allocBytes, gcCycles, gcPauseNS uint64 }
}

// speedupMinPairs is the smallest candidate set on which timing
// vectorize+classify at one worker against nproc workers means anything.
const speedupMinPairs = 512

// runTrace replays the workload's requests one at a time through an
// in-process Detector identical to the child's, for window of wall time, with
// a span around every layer call and a shadow pipeline probing each layer on
// the same inputs. It fails if, for any request, the shadow's candidate count
// or duplicate set differs from what Detect returned.
func runTrace(w workload, seed int64, in *inputs, window time.Duration) (*traceResult, error) {
	boot, err := serve.NewBootstrap(w.bootstrapConfig())
	if err != nil {
		return nil, fmt.Errorf("trace bootstrap: %w", err)
	}
	det := boot.Detector
	srv := serve.New(det, serve.Config{Workers: 2, QueueDepth: 64})
	if err := srv.Start(); err != nil {
		det.Engine().Cluster().Close()
		return nil, err
	}
	defer func() { _ = srv.Close(context.Background()) }() // drains an idle server, then closes the engine
	handler := srv.Handler()
	sh, err := newShadow(boot)
	if err != nil {
		return nil, err
	}
	defer sh.close()

	out := &traceResult{trainTime: sh.trainTime}
	out.stageOverhead, err = stageOverhead(sh.cl)
	if err != nil {
		return nil, err
	}

	// Which of the three entry points a request takes is drawn at random: a
	// fixed rotation locks step with the garbage collector (one cycle every
	// third request at this allocation rate) and charges it all to one path.
	paths := rand.New(rand.NewSource(seed))
	rec := &recorder{t0: time.Now()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id, rq := range in.requests {
		if time.Since(rec.t0) >= window {
			break
		}
		t := tracedRequest{reports: len(rq.reports)}
		if w.Daemon {
			t.path = paths.Intn(3)
		}
		var resp wireResponse
		reqStart := time.Now()

		var batch []adr.Report
		decode := func() (map[string]int64, error) {
			var err error
			if w.single() {
				var r adr.Report
				r, err = serve.DecodeReport(rq.body)
				batch = []adr.Report{r}
			} else {
				batch, err = serve.DecodeBatch(rq.body, 5000)
			}
			return map[string]int64{"bytes": int64(len(rq.body))}, err
		}
		encode := func() (map[string]int64, error) {
			b, err := json.Marshal(resp)
			return map[string]int64{"bytes": int64(len(b))}, err
		}
		m0 := det.Metrics()
		switch t.path {
		case 0, 1:
			if t.decode, err = rec.timed(id, "serve.decode", "request", decode); err != nil {
				return nil, err
			}
			name := "detector.detect"
			call := func() ([]adrdedup.Match, error) { return det.Detect(batch) }
			if t.path == 1 {
				name = "serve.submit"
				call = func() ([]adrdedup.Match, error) { return srv.Submit(context.Background(), batch) }
			}
			t.service, err = rec.timed(id, name, "request", func() (map[string]int64, error) {
				matches, err := call()
				resp = wireOf(len(batch), matches)
				return map[string]int64{"reports": int64(len(batch)), "scored": int64(resp.Scored), "duplicates": int64(resp.Duplicates)}, err
			})
			if err != nil {
				return nil, err
			}
			if t.encode, err = rec.timed(id, "serve.encode", "request", encode); err != nil {
				return nil, err
			}
		case 2:
			t.service, err = rec.timed(id, "serve.http", "request", func() (map[string]int64, error) {
				rr := httptest.NewRecorder()
				handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, w.Path, bytes.NewReader(rq.body)))
				if rr.Code != http.StatusOK {
					return nil, fmt.Errorf("traced request %d: HTTP %d: %s", id, rr.Code, rr.Body.Bytes())
				}
				return map[string]int64{"bytes": int64(rr.Body.Len())}, json.Unmarshal(rr.Body.Bytes(), &resp)
			})
			if err != nil {
				return nil, err
			}
		}
		t.engine = engineDelta(m0, det.Metrics())
		rec.spans = append(rec.spans, span{Name: "request", ID: id,
			StartNS: int64(reqStart.Sub(rec.t0)), EndNS: int64(time.Since(rec.t0)),
			Counts: map[string]int64{"path": int64(t.path), "reports": int64(t.reports)}})
		if t.path == 2 {
			// The handler decoded and encoded inside the call; time the same
			// two operations again here so they can be subtracted from it.
			if t.decode, err = rec.timed(id, "serve.decode", "probe", decode); err != nil {
				return nil, err
			}
			if t.encode, err = rec.timed(id, "serve.encode", "probe", encode); err != nil {
				return nil, err
			}
		}

		dups, err := sh.probe(rec, id, rq.reports, &t, out)
		if err != nil {
			return nil, err
		}
		if t.pairs != resp.Scored {
			return nil, fmt.Errorf("request %d: shadow pipeline emitted %d candidate pairs, Detect scored %d", id, t.pairs, resp.Scored)
		}
		got := make(map[pairKey]bool)
		addPairs(got, resp.Matches)
		if err := diffPairs(got, dups); err != nil {
			return nil, fmt.Errorf("request %d: Detect vs shadow pipeline: %w", id, err)
		}
		out.requests = append(out.requests, t)
	}
	runtime.ReadMemStats(&after)
	out.mem.allocBytes = after.TotalAlloc - before.TotalAlloc
	out.mem.gcCycles = uint64(after.NumGC - before.NumGC)
	out.mem.gcPauseNS = after.PauseTotalNs - before.PauseTotalNs
	out.spans = rec.spans
	return out, nil
}

// wireOf builds the ingest response the daemon would send for matches.
func wireOf(ingested int, matches []adrdedup.Match) wireResponse {
	resp := wireResponse{Ingested: ingested, Scored: len(matches), Matches: []wireMatch{}}
	for _, m := range adrdedup.Duplicates(matches) {
		resp.Matches = append(resp.Matches, wireMatch{CaseA: m.CaseA, CaseB: m.CaseB, Score: m.Score, Duplicate: true})
	}
	resp.Duplicates = len(resp.Matches)
	return resp
}

func engineDelta(a, b cluster.MetricsSnapshot) cluster.MetricsSnapshot {
	return cluster.MetricsSnapshot{
		StagesRun:           b.StagesRun - a.StagesRun,
		TasksLaunched:       b.TasksLaunched - a.TasksLaunched,
		ShuffleBytesWritten: b.ShuffleBytesWritten - a.ShuffleBytesWritten,
		BroadcastBytes:      b.BroadcastBytes - a.BroadcastBytes,
	}
}

// probe runs one request's reports through the shadow pipeline the way
// Detector.detect calls the layers, one span per layer call, and returns the
// duplicate pairs it found.
func (sh *shadow) probe(rec *recorder, id int, reports []adr.Report, t *tracedRequest, out *traceResult) (map[pairKey]bool, error) {
	shuffles := sh.cl.Shuffles()
	mark := shuffles.Mark()
	defer shuffles.ReleaseSince(mark)

	existing := len(sh.feats)
	var err error
	t.dbAdd, err = rec.timed(id, "adr.add", "probe", func() (map[string]int64, error) {
		return map[string]int64{"reports": int64(len(reports))}, sh.db.Add(reports...)
	})
	if err != nil {
		return nil, err
	}
	// Detect snapshots the whole database to reach the reports it just added,
	// which the database has numbered, and once more to name the matches.
	var all []adr.Report
	snapshot := func() (map[string]int64, error) {
		all = sh.db.Reports()
		return map[string]int64{"reports": int64(len(all))}, nil
	}
	t.dbSnapshot, _ = rec.timed(id, "adr.snapshot", "probe", snapshot)
	t.extract, err = rec.timed(id, "pairdist.extract", "probe", func() (map[string]int64, error) {
		feats, err := pairdist.ExtractAllWith(sh.ctx, sh.it, all[existing:], sh.parts)
		sh.feats = append(sh.feats, feats...)
		return map[string]int64{"reports": int64(len(reports))}, err
	})
	if err != nil {
		return nil, err
	}
	var sigs [][]uint32
	t.signatures, err = rec.timed(id, "candgen.signatures", "probe", func() (map[string]int64, error) {
		var err error
		sigs, err = candgen.Signatures(sh.feats)
		return map[string]int64{"records": int64(len(sh.feats))}, err
	})
	if err != nil {
		return nil, err
	}
	var ids []pairdist.IDPair
	t.candPairs, err = rec.timed(id, "candgen.pairs", "probe", func() (map[string]int64, error) {
		var err error
		ids, t.cand, err = candgen.Pairs(sh.ctx, sigs, candgen.Params{Theta: sh.theta, Partitions: sh.parts, MinArrival: existing})
		return map[string]int64{"indexEntries": t.cand.IndexEntries, "scanned": t.cand.Scanned,
			"verified": t.cand.Verified, "emitted": t.cand.Emitted}, err
	})
	if err != nil {
		return nil, err
	}
	t.pairs = len(ids)
	dups := make(map[pairKey]bool)
	if len(ids) == 0 {
		return dups, nil
	}
	var vecs [][]float64
	vectorize := func(ctx *rdd.Context) func() (map[string]int64, error) {
		return func() (map[string]int64, error) {
			recs, err := pairdist.ComputeVectors(ctx, sh.feats, ids, sh.parts)
			vecs = make([][]float64, len(recs))
			for i, r := range recs {
				vecs[i] = r.Vec
			}
			return map[string]int64{"pairs": int64(len(ids))}, err
		}
	}
	if t.vectorize, err = rec.timed(id, "pairdist.vectorize", "probe", vectorize(sh.ctx)); err != nil {
		return nil, err
	}
	var results []core.Result
	t.classify, err = rec.timed(id, "core.classify", "probe", func() (map[string]int64, error) {
		var err error
		results, t.cls, err = sh.clf.Classify(vecs)
		return map[string]int64{"pairs": int64(len(vecs)), "pruned": int64(t.cls.PrunedPairs),
			"intra": t.cls.IntraClusterComparisons, "cross": t.cls.CrossClusterComparisons,
			"posscan": t.cls.PositiveScanComparisons}, err
	})
	if err != nil {
		return nil, err
	}
	again, _ := rec.timed(id, "adr.snapshot", "probe", snapshot)
	t.dbSnapshot += again
	for _, res := range results {
		if res.Label > 0 {
			dups[makePair(all[ids[res.ID].A].CaseNumber, all[ids[res.ID].B].CaseNumber)] = true
		}
	}

	if out.speedup == 0 && len(ids) >= speedupMinPairs {
		mark1 := sh.cl1.Shuffles().Mark()
		v1, err := rec.timed(id, "pairdist.vectorize@1", "speedup", vectorize(sh.ctx1))
		if err != nil {
			return nil, err
		}
		c1, err := rec.timed(id, "core.classify@1", "speedup", func() (map[string]int64, error) {
			_, _, err := sh.clf1.Classify(vecs)
			return nil, err
		})
		sh.cl1.Shuffles().ReleaseSince(mark1)
		if err != nil {
			return nil, err
		}
		out.speedup = float64(v1+c1) / float64(t.vectorize+t.classify)
	}
	return dups, nil
}

// stageOverhead is the median wall time of a no-op 8-task stage on an idle
// engine: what every stage of every Detect pays before doing any work.
func stageOverhead(cl *cluster.Cluster) (time.Duration, error) {
	times := make([]time.Duration, 201)
	for i := range times {
		start := time.Now()
		if _, err := cl.RunStage("bench.noop", 8, func(*cluster.TaskContext) error { return nil }); err != nil {
			return 0, err
		}
		times[i] = time.Since(start)
	}
	return medianDur(times), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func medianDur(v []time.Duration) time.Duration {
	if len(v) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// layerMetrics reduces the traced requests to the per-layer metrics of
// BENCHMARK.json. Every "_ms_per_req" figure is a median over the traced
// requests: a garbage-collection cycle adds about 10 ms to whichever call
// crosses the heap threshold, so means smear those hits over the layers at
// random. Collection is reported on its own under proc.*. Per-pair and
// per-report figures divide total time by total count.
func (tr *traceResult) layerMetrics(m metricSet) {
	n := float64(len(tr.requests))
	var reports, pairs float64
	var extract, vectorize, classify time.Duration
	var cand candgen.Stats
	var cls core.Stats
	var eng cluster.MetricsSnapshot
	var decode, encode, dbAdd, dbSnapshot, signatures, candPairs, candgenBoth, vectorizes, classifies, service []time.Duration
	// Requests sent straight to Detector.Detect give the layer split; the
	// other two paths add the serving layer on top. The shadow's probe total
	// of the same request is subtracted from each before comparing paths, so
	// the request-to-request variation of Detect itself cancels.
	var detect []time.Duration
	residual := make([][]time.Duration, 3)
	for _, t := range tr.requests {
		reports += float64(t.reports)
		pairs += float64(t.pairs)
		extract += t.extract
		vectorize += t.vectorize
		classify += t.classify
		decode = append(decode, t.decode)
		encode = append(encode, t.encode)
		dbAdd = append(dbAdd, t.dbAdd)
		dbSnapshot = append(dbSnapshot, t.dbSnapshot)
		signatures = append(signatures, t.signatures)
		candPairs = append(candPairs, t.candPairs)
		candgenBoth = append(candgenBoth, t.signatures+t.candPairs)
		vectorizes = append(vectorizes, t.vectorize)
		classifies = append(classifies, t.classify)
		cand.IndexEntries += t.cand.IndexEntries
		cand.Verified += t.cand.Verified
		cand.Emitted += t.cand.Emitted
		cls.TestPairs += t.cls.TestPairs
		cls.PrunedPairs += t.cls.PrunedPairs
		cls.IntraClusterComparisons += t.cls.IntraClusterComparisons
		cls.CrossClusterComparisons += t.cls.CrossClusterComparisons
		cls.PositiveScanComparisons += t.cls.PositiveScanComparisons
		eng.StagesRun += t.engine.StagesRun
		eng.TasksLaunched += t.engine.TasksLaunched
		eng.ShuffleBytesWritten += t.engine.ShuffleBytesWritten
		eng.BroadcastBytes += t.engine.BroadcastBytes
		r := t.service - t.probes()
		total := t.service
		if t.path == 2 {
			// The handler call already contains the decode and the encode.
			r -= t.decode + t.encode
		} else {
			total += t.decode + t.encode
		}
		service = append(service, total)
		if t.path == 0 {
			detect = append(detect, t.service)
		}
		residual[t.path] = append(residual[t.path], r)
	}
	med := func(v []time.Duration) float64 { return ms(medianDur(v)) }

	m.set("trace.requests", n, "count")
	m.set("trace.service_ms_p50", med(service), "ms")

	m.set("serve.decode_ms_per_req", med(decode), "ms")
	m.set("serve.encode_ms_per_req", med(encode), "ms")
	var submitOverhead, httpOverhead float64
	if len(residual[1]) > 0 && len(residual[2]) > 0 {
		submitOverhead = med(residual[1]) - med(residual[0])
		httpOverhead = med(residual[2]) - med(residual[1])
	}
	m.set("serve.submit_overhead_ms", submitOverhead, "ms")
	m.set("serve.http_overhead_ms", httpOverhead, "ms")

	// Shares set a probe's median over all traced requests against Detect's
	// median over the requests that went straight to it; the entry points are
	// drawn at random, so both see the same database sizes.
	detectMS := med(detect)
	m.set("detector.detect_ms_per_req", detectMS, "ms")
	m.set("detector.unattributed_ms_per_req", med(residual[0]), "ms")
	m.set("detector.unattributed_share", ratio(med(residual[0]), detectMS), "share")

	m.set("adr.add_ms_per_req", med(dbAdd), "ms")
	m.set("adr.snapshot_ms_per_req", med(dbSnapshot), "ms")

	m.set("pairdist.extract_us_per_report", ratio(ms(extract)*1000, reports), "us")
	m.set("pairdist.vectorize_ns_per_pair", ratio(float64(vectorize), pairs), "ns")
	m.set("pairdist.pairs_vectorized", pairs, "count")
	m.set("pairdist.vectorize_share_of_detect", ratio(med(vectorizes), detectMS), "share")

	m.set("candgen.signatures_ms_per_req", med(signatures), "ms")
	m.set("candgen.pairs_ms_per_req", med(candPairs), "ms")
	m.set("candgen.index_entries_per_req", ratio(float64(cand.IndexEntries), n), "count")
	m.set("candgen.emitted_pairs", float64(cand.Emitted), "count")
	m.set("candgen.verified_per_emitted", ratio(float64(cand.Verified), float64(cand.Emitted)), "ratio")
	m.set("candgen.cost_growth", tr.costGrowth(), "ratio")
	m.set("candgen.share_of_detect", ratio(med(candgenBoth), detectMS), "share")

	m.set("core.classify_us_per_pair", ratio(ms(classify)*1000, pairs), "us")
	m.set("core.train_ms", ms(tr.trainTime), "ms")
	m.set("core.intra_cmp_per_pair", ratio(float64(cls.IntraClusterComparisons), pairs), "count")
	m.set("core.cross_cmp_per_pair", ratio(float64(cls.CrossClusterComparisons), pairs), "count")
	m.set("core.posscan_cmp_per_pair", ratio(float64(cls.PositiveScanComparisons), pairs), "count")
	m.set("core.pruned_share", ratio(float64(cls.PrunedPairs), float64(cls.TestPairs)), "share")
	m.set("core.share_of_detect", ratio(med(classifies), detectMS), "share")

	m.set("cluster.stages_per_req", ratio(float64(eng.StagesRun), n), "count")
	m.set("cluster.tasks_per_req", ratio(float64(eng.TasksLaunched), n), "count")
	m.set("cluster.shuffle_bytes_per_req", ratio(float64(eng.ShuffleBytesWritten), n), "B")
	m.set("cluster.broadcast_bytes_per_req", ratio(float64(eng.BroadcastBytes), n), "B")
	m.set("cluster.stage_overhead_us", ms(tr.stageOverhead)*1000, "us")
	m.set("cluster.speedup_nproc", tr.speedup, "ratio")

	m.set("proc.alloc_mb_per_kreport", ratio(float64(tr.mem.allocBytes)/(1<<20), reports/1000), "MB")
	m.set("proc.gc_cycles", float64(tr.mem.gcCycles), "count")
	m.set("proc.gc_pause_ms", float64(tr.mem.gcPauseNS)/1e6, "ms")
}

// costGrowth is how much candgen.Pairs time grew from the first traced
// request to the last: a least-squares line through all requests, its value at
// the last over its value at the first. 1.0 means the per-call cost does not
// grow with the database. A line through every request, because the medians
// of the first and last tenth alone wander by 8 % from run to run.
func (tr *traceResult) costGrowth() float64 {
	n := float64(len(tr.requests))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i, t := range tr.requests {
		x, y := float64(i), float64(t.candPairs)
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	first := (sy - slope*sx) / n
	return ratio(first+slope*(n-1), first)
}

// writeSpans stores the spans of one traced run.
func writeSpans(path string, meta runMeta, w workload, spans []span) error {
	data, err := json.Marshal(struct {
		Meta     runMeta `json:"meta"`
		Workload string  `json:"workload"`
		Spans    []span  `json:"spans"`
	}{meta, w.Name, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
