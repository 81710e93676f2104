package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"adrdedup"
	"adrdedup/internal/adr"
	"adrdedup/internal/core"
)

// newIdleServer wraps an untrained detector: enough for exercising the HTTP
// decode and error paths, which all run before the pipeline.
func newIdleServer(t *testing.T) *Server {
	t.Helper()
	det, err := adrdedup.New(adrdedup.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { det.Engine().Cluster().Close() })
	return New(det, Config{MaxBatch: 5, maxBodyBytes: 4096})
}

// gatedServer builds a started server whose consumer blocks in the
// pre-Detect test hook until gate is closed; entered reports each job the
// consumer picks up. The deterministic seam for backpressure and drain tests.
func gatedServer(t *testing.T, seed int64, cfg Config) (srv *Server, gate chan struct{}, entered chan struct{}) {
	t.Helper()
	boot := mustBootstrap(t, testBootCfg(seed, 120, 6, 150))
	srv = New(boot.Detector, cfg)
	gate = make(chan struct{})
	entered = make(chan struct{}, 16)
	srv.testHookBeforeDetect = func() {
		entered <- struct{}{}
		<-gate
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return srv, gate, entered
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func marshalBatch(t *testing.T, reports []adr.Report) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Reports []adr.Report `json:"reports"`
	}{reports})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// waitFor polls cond for up to five seconds and fails the test with what if it
// never holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

func getStats(t *testing.T, baseURL string) Stats {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestQueueFullReturns429: with the consumer held mid-batch and a depth-1
// queue occupied, the next ingest is refused with 429 and the configured
// Retry-After hint, and the refusal is counted. Releasing the consumer drains
// both accepted batches successfully.
func TestQueueFullReturns429(t *testing.T) {
	srv, gate, entered := gatedServer(t, 41, Config{
		QueueDepth: 1, retryAfter: 2 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	traffic := GenerateTraffic(TrafficConfig{Reports: 30, Seed: 19})
	type result struct {
		matches []adrdedup.Match
		err     error
	}
	res1, res2 := make(chan result, 1), make(chan result, 1)
	go func() {
		m, err := srv.Submit(context.Background(), traffic[0:5])
		res1 <- result{m, err}
	}()
	<-entered // the consumer is now holding batch 1
	go func() {
		m, err := srv.Submit(context.Background(), traffic[5:10])
		res2 <- result{m, err}
	}()
	// Wait until batch 2 occupies the queue's only slot.
	waitFor(t, "second batch never reached the queue", func() bool { return srv.Stats().QueueDepth == 1 })

	resp, body := postJSON(t, ts.URL+"/v1/reports:batch", marshalBatch(t, traffic[10:15]))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want %q", got, "2")
	}
	if st := srv.Stats(); st.QueueFullRejects != 1 {
		t.Errorf("QueueFullRejects = %d, want 1", st.QueueFullRejects)
	}

	close(gate)
	for i, ch := range []chan result{res1, res2} {
		r := <-ch
		if r.err != nil {
			t.Fatalf("accepted batch %d failed after release: %v", i+1, r.err)
		}
	}
	closeServer(t, srv)
	if st := srv.Stats(); st.Ingested != 10 || st.Batches != 2 {
		t.Errorf("after drain: ingested=%d batches=%d, want 10/2", st.Ingested, st.Batches)
	}
}

// TestDrainCompletesInFlight: Shutdown refuses new work immediately (503
// over HTTP) but the already-accepted batches — the one in flight and the one
// still queued behind it — complete and are absorbed, and /v1/stats shows the
// queued batch for as long as the drain has not reached it.
func TestDrainCompletesInFlight(t *testing.T) {
	srv, gate, entered := gatedServer(t, 43, Config{QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	traffic := GenerateTraffic(TrafficConfig{Reports: 30, Seed: 23})
	inflight := make(chan error, 1)
	go func() {
		_, err := srv.Submit(context.Background(), traffic[0:8])
		inflight <- err
	}()
	<-entered // the consumer holds the batch mid-Detect
	queued := make(chan error, 1)
	go func() {
		_, err := srv.Submit(context.Background(), traffic[14:20])
		queued <- err
	}()
	waitFor(t, "second batch never reached the queue", func() bool { return srv.Stats().QueueDepth == 1 })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	waitFor(t, "server never reached draining state", func() bool { return srv.Stats().State == "draining" })

	if _, err := srv.Submit(context.Background(), traffic[8:10]); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit during drain returned %v, want ErrShuttingDown", err)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/reports:batch", marshalBatch(t, traffic[10:12]))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest during drain answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 during drain should carry Retry-After")
	}
	if hresp, _ := http.Get(ts.URL + "/healthz"); hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", hresp.StatusCode)
	}
	if st := getStats(t, ts.URL); st.State != "draining" || st.QueueDepth < 1 {
		t.Errorf("stats during drain: state=%q queueDepth=%d, want draining with the queued batch visible",
			st.State, st.QueueDepth)
	}

	close(gate)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("drain returned %v", err)
	}
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight batch failed during drain: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued batch failed during drain: %v", err)
	}
	st := getStats(t, ts.URL)
	if st.State != "stopped" || st.QueueDepth != 0 {
		t.Errorf("after drain: state=%q queueDepth=%d, want stopped/0", st.State, st.QueueDepth)
	}
	if st.Ingested != 14 {
		t.Errorf("accepted batches not absorbed: ingested=%d, want 8 in flight + 6 queued", st.Ingested)
	}
	if _, err := srv.Submit(context.Background(), traffic[12:14]); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown returned %v, want ErrShuttingDown", err)
	}
	srv.Detector().Engine().Cluster().Close()
}

// TestShutdownTimeout: a deadline shorter than the in-flight batch makes
// Shutdown return the context error while the drain continues; a second
// Shutdown call then completes it. The timed-out call leaves no goroutine of
// its own behind, and the drain ends the consumer and the submitter.
func TestShutdownTimeout(t *testing.T) {
	srv, gate, entered := gatedServer(t, 47, Config{QueueDepth: 2})
	traffic := GenerateTraffic(TrafficConfig{Reports: 10, Seed: 29})
	go func() { _, _ = srv.Submit(context.Background(), traffic[:5]) }()
	<-entered
	held := runtime.NumGoroutine() // includes the held consumer and the waiting submitter

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with expired deadline returned %v, want DeadlineExceeded", err)
	}
	if n := settleGoroutines(held); n > held {
		t.Errorf("timed-out Shutdown left %d goroutine(s) behind", n-held)
	}
	close(gate)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown returned %v, want nil", err)
	}
	if n := settleGoroutines(held - 2); n > held-2 {
		t.Errorf("after the drain %d goroutines live, want at most %d (consumer and submitter gone)", n, held-2)
	}
	srv.Detector().Engine().Cluster().Close()
}

// TestHealthzDuringShutdown hammers /healthz while the server goes running ->
// draining -> stopped. The handler must read the state once, under the lock:
// run with -race this fails on a second, unlocked read for the 503 body. The
// body must also agree with the status code it came with.
func TestHealthzDuringShutdown(t *testing.T) {
	srv, gate, entered := gatedServer(t, 53, Config{QueueDepth: 2})
	h := srv.Handler()
	traffic := GenerateTraffic(TrafficConfig{Reports: 5, Seed: 31})
	go func() { _, _ = srv.Submit(context.Background(), traffic) }()
	<-entered

	stop := make(chan struct{})
	sawDraining := make(chan struct{})
	var sawOnce sync.Once
	hammered := make(chan struct{})
	go func() {
		defer close(hammered)
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var body map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Errorf("healthz body %q: %v", rec.Body, err)
				return
			}
			switch status := body["status"]; {
			case rec.Code == http.StatusOK && status == "ok":
			case rec.Code == http.StatusServiceUnavailable && status == "draining":
				sawOnce.Do(func() { close(sawDraining) })
			case rec.Code == http.StatusServiceUnavailable && status == "stopped":
			default:
				t.Errorf("healthz answered %d with status %q", rec.Code, status)
				return
			}
		}
	}()

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(context.Background()) }()
	select {
	case <-sawDraining:
	case <-time.After(5 * time.Second):
		t.Fatal("healthz never reported draining")
	}
	close(gate)
	if err := <-shutdownErr; err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-hammered
	srv.Detector().Engine().Cluster().Close()
}

// TestIngestDecodeErrors pins the decoder's HTTP status mapping: every
// malformed request is a typed 4xx, never a 500 and never a hang.
func TestIngestDecodeErrors(t *testing.T) {
	srv := newIdleServer(t) // MaxBatch 5, maxBodyBytes 4096
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bigBatch, err := json.Marshal(map[string]any{"reports": []map[string]string{
		{"caseNumber": "A"}, {"caseNumber": "B"}, {"caseNumber": "C"},
		{"caseNumber": "D"}, {"caseNumber": "E"}, {"caseNumber": "F"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"malformed json", "/v1/reports", `{`, 400},
		{"trailing data", "/v1/reports", `{"caseNumber":"A"} {"caseNumber":"B"}`, 400},
		{"missing case number", "/v1/reports", `{"sex":"F"}`, 422},
		{"age out of range", "/v1/reports", `{"caseNumber":"A","calculatedAge":900}`, 422},
		{"empty batch object", "/v1/reports:batch", `{"reports":[]}`, 400},
		{"empty batch array", "/v1/reports:batch", `[]`, 400},
		{"batch over max", "/v1/reports:batch", string(bigBatch), 413},
		{"duplicate case in batch", "/v1/reports:batch",
			`{"reports":[{"caseNumber":"A"},{"caseNumber":"A"}]}`, 422},
		{"bad report in batch", "/v1/reports:batch", `[{"caseNumber":""}]`, 422},
		{"oversized body", "/v1/reports", fmt.Sprintf(`{"caseNumber":%q}`, strings.Repeat("x", 8192)), 413},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, []byte(tc.body))
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q is not an {error} object", body)
			}
		})
	}

	// Method and state mapping outside the table's shape.
	if resp, err := http.Get(ts.URL + "/v1/reports"); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/reports = %d, want 405", resp.StatusCode)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/reports", []byte(`{"caseNumber":"A"}`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest before Start = %d, want 503", resp.StatusCode)
	}
	if hresp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz before Start = %d, want 503", hresp.StatusCode)
	}
}

// TestHTTPIngestEndToEnd drives both ingest endpoints over real HTTP and
// checks the stats surfaces: /v1/stats JSON shape and the expvar var.
func TestHTTPIngestEndToEnd(t *testing.T) {
	boot := mustBootstrap(t, testBootCfg(31, 250, 12, 300))
	srv := New(boot.Detector, Config{QueueDepth: 8})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer closeServer(t, srv)

	traffic := GenerateTraffic(TrafficConfig{Reports: 30, DupFraction: 0.2, Seed: 17})

	single, err := json.Marshal(traffic[0])
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/reports", single)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single ingest = %d (body %s)", resp.StatusCode, body)
	}
	var ir ingestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Ingested != 1 {
		t.Errorf("single ingest reported %d ingested, want 1", ir.Ingested)
	}

	resp, body = postJSON(t, ts.URL+"/v1/reports:batch", marshalBatch(t, traffic[1:21]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch ingest = %d (body %s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Ingested != 20 {
		t.Errorf("batch ingest reported %d ingested, want 20", ir.Ingested)
	}
	if ir.Duplicates != len(ir.Matches) {
		t.Errorf("duplicates=%d but %d matches returned", ir.Duplicates, len(ir.Matches))
	}
	for _, m := range ir.Matches {
		if !m.Duplicate {
			t.Errorf("match %s/%s returned with duplicate=false", m.CaseA, m.CaseB)
		}
	}

	st := getStats(t, ts.URL)
	if st.State != "running" {
		t.Errorf("stats state = %q, want running", st.State)
	}
	if st.Ingested != 21 || st.Batches != 2 {
		t.Errorf("stats ingested=%d batches=%d, want 21/2", st.Ingested, st.Batches)
	}
	if want := boot.Config.SeedReports + 21; st.DatabaseReports != want {
		t.Errorf("stats databaseReports=%d, want %d", st.DatabaseReports, want)
	}
	if st.Latency.Count != 2 {
		t.Errorf("stats latency count=%d, want 2", st.Latency.Count)
	}

	vresp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	vars, err := io.ReadAll(vresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(vars, []byte(`"adrdedupd"`)) {
		t.Error("/debug/vars does not expose the adrdedupd var")
	}
}

// TestHTTPIngestMatchesSequentialReplay is the oracle for the handler's
// duplicates-only path. Singles and batches are posted one after another, so
// the arrival order is the posting order, and replayed through Detect on a
// fresh identical bootstrap: each response's scored must be len(Detect) and
// its matches Duplicates(Detect), in order, and /v1/stats must add up the
// same. Testing-set pruning is on, so scored is not the candidate pair count:
// a second replay through DetectAll shows that some pairs were pruned.
func TestHTTPIngestMatchesSequentialReplay(t *testing.T) {
	cfg := testBootCfg(61, 250, 12, 300)
	cfg.Detector.Classifier.Pruning = &core.PruningConfig{Clusters: 4, FTheta: 0.7}
	boot := mustBootstrap(t, cfg)
	srv := New(boot.Detector, Config{QueueDepth: 4})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer closeServer(t, srv)
	oracle := mustBootstrap(t, cfg)
	defer oracle.Detector.Engine().Cluster().Close()
	audit := mustBootstrap(t, cfg)
	defer audit.Detector.Engine().Cluster().Close()

	traffic := GenerateTraffic(TrafficConfig{Reports: 40, DupFraction: 0.3, Seed: 37})
	var scored, matched, pruned, batches int
	for i, n := 0, 1; i < len(traffic); i, n = i+n, n%4+1 {
		batch := traffic[i:min(i+n, len(traffic))]
		var resp *http.Response
		var body []byte
		if len(batch) == 1 {
			single, err := json.Marshal(batch[0])
			if err != nil {
				t.Fatal(err)
			}
			resp, body = postJSON(t, ts.URL+"/v1/reports", single)
		} else {
			resp, body = postJSON(t, ts.URL+"/v1/reports:batch", marshalBatch(t, batch))
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest of reports %d..%d = %d (body %s)", i, i+len(batch)-1, resp.StatusCode, body)
		}
		var got ingestResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}

		want, err := oracle.Detector.Detect(batch)
		if err != nil {
			t.Fatal(err)
		}
		all, err := audit.Detector.DetectAll(batch)
		if err != nil {
			t.Fatal(err)
		}
		wantDups := []matchJSON{}
		for _, m := range adrdedup.Duplicates(want) {
			wantDups = append(wantDups, matchJSON{CaseA: m.CaseA, CaseB: m.CaseB, Score: m.Score, Duplicate: true})
		}
		if got.Ingested != len(batch) || got.Scored != len(want) || got.Duplicates != len(wantDups) {
			t.Fatalf("reports %d..%d: ingested/scored/duplicates %d/%d/%d, replay %d/%d/%d", i, i+len(batch)-1,
				got.Ingested, got.Scored, got.Duplicates, len(batch), len(want), len(wantDups))
		}
		if !reflect.DeepEqual(got.Matches, wantDups) {
			t.Fatalf("reports %d..%d: matches %+v, replay %+v", i, i+len(batch)-1, got.Matches, wantDups)
		}
		scored += len(want)
		matched += len(wantDups)
		pruned += len(all) - len(want)
		batches++
	}
	if matched == 0 || pruned == 0 {
		t.Fatalf("%d duplicates and %d pruned pairs over the stream; the replay is vacuous", matched, pruned)
	}
	t.Logf("%d batches: %d pairs scored, %d duplicates, %d pruned", batches, scored, matched, pruned)
	st := getStats(t, ts.URL)
	if st.Ingested != uint64(len(traffic)) || st.Batches != uint64(batches) ||
		st.Scored != uint64(scored) || st.Matched != uint64(matched) {
		t.Fatalf("stats ingested/batches/scored/matched %d/%d/%d/%d, replay %d/%d/%d/%d",
			st.Ingested, st.Batches, st.Scored, st.Matched, len(traffic), batches, scored, matched)
	}
	if g, w := boot.Detector.Metrics(), oracle.Detector.Metrics(); g != w {
		t.Fatalf("server committed engine counters %+v, sequential replay %+v", g, w)
	}
}

// TestFailedDetectStatuses pins the status of an accepted batch whose Detect
// fails, by whose fault it is. Re-posting an ingested case is the client's
// conflict: 409, and resending will not help. A batch scored on a closed
// engine is the server's failure, rolled back whole: 503 with Retry-After, as
// for any refusal that is safe to resend. Each failure counts one failed
// batch and moves neither the ingested count nor the database.
func TestFailedDetectStatuses(t *testing.T) {
	boot := mustBootstrap(t, testBootCfg(41, 120, 6, 150))
	srv := New(boot.Detector, Config{QueueDepth: 2, retryAfter: 3 * time.Second})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer closeServer(t, srv)

	traffic := GenerateTraffic(TrafficConfig{Reports: 10, Seed: 71})
	if resp, body := postJSON(t, ts.URL+"/v1/reports:batch", marshalBatch(t, traffic[:5])); resp.StatusCode != http.StatusOK {
		t.Fatalf("first ingest = %d (body %s)", resp.StatusCode, body)
	}
	fail := func(what string, batch []adr.Report, status int, retryAfter string) {
		t.Helper()
		before := getStats(t, ts.URL)
		resp, body := postJSON(t, ts.URL+"/v1/reports:batch", marshalBatch(t, batch))
		if resp.StatusCode != status {
			t.Fatalf("%s answered %d, want %d (body %s)", what, resp.StatusCode, status, body)
		}
		if got := resp.Header.Get("Retry-After"); got != retryAfter {
			t.Errorf("%s: Retry-After = %q, want %q", what, got, retryAfter)
		}
		after := getStats(t, ts.URL)
		if after.FailedBatches != before.FailedBatches+1 {
			t.Errorf("%s: failedBatches went from %d to %d, want one more", what, before.FailedBatches, after.FailedBatches)
		}
		if after.Ingested != before.Ingested || after.DatabaseReports != before.DatabaseReports {
			t.Errorf("%s: ingested %d -> %d, databaseReports %d -> %d; want both unmoved", what,
				before.Ingested, after.Ingested, before.DatabaseReports, after.DatabaseReports)
		}
	}
	// The ingested case rides behind a fresh one, which is refused with it.
	fail("re-posting an ingested case", []adr.Report{traffic[5], traffic[2]}, http.StatusConflict, "")
	srv.Detector().Engine().Cluster().Close()
	fail("a batch on a closed engine", traffic[5:], http.StatusServiceUnavailable, "3")
}

// TestQueuedSubmitOutlivesItsContext pins what Submit promises a caller whose
// context expires while its batch waits in the queue: Submit returns the
// context's error, but the accepted batch is still absorbed in queue order,
// so the next batch's matches are those of a sequential Detect replay that
// includes it.
func TestQueuedSubmitOutlivesItsContext(t *testing.T) {
	const seed = 73
	srv, gate, entered := gatedServer(t, seed, Config{QueueDepth: 2})
	oracle := mustBootstrap(t, testBootCfg(seed, 120, 6, 150))
	defer oracle.Detector.Engine().Cluster().Close()

	traffic := GenerateTraffic(TrafficConfig{Reports: 24, DupFraction: 0.3, Seed: 79})
	first, queued, next := traffic[:8], traffic[8:16], traffic[16:]
	held := make(chan error, 1)
	go func() {
		_, err := srv.Submit(context.Background(), first)
		held <- err
	}()
	<-entered // the consumer holds the first batch
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := srv.Submit(ctx, queued); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit whose context expired in the queue returned %v, want DeadlineExceeded", err)
	}
	if depth := srv.Stats().QueueDepth; depth != 1 {
		t.Fatalf("queue depth %d once the Submit gave up, want its batch still queued", depth)
	}
	close(gate)
	defer closeServer(t, srv)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	got, err := srv.Submit(context.Background(), next)
	if err != nil {
		t.Fatal(err)
	}

	var want []adrdedup.Match
	for _, batch := range [][]adr.Report{first, queued, next} {
		if want, err = oracle.Detector.Detect(batch); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the batch after the expired Submit returned %d matches, a replay that includes it %d", len(got), len(want))
	}
	inQueued := make(map[string]bool)
	for _, r := range queued {
		inQueued[r.CaseNumber] = true
	}
	paired := 0
	for _, m := range got {
		if inQueued[m.CaseA] || inQueued[m.CaseB] {
			paired++
		}
	}
	if paired == 0 {
		t.Fatal("no match pairs the next batch with the expired one; the replay cannot tell whether it was absorbed")
	}
	st := srv.Stats()
	if st.Ingested != uint64(len(traffic)) || st.Batches != 3 || st.FailedBatches != 0 ||
		st.DatabaseReports != oracle.Detector.Database().Len() {
		t.Fatalf("stats ingested/batches/failed/databaseReports %d/%d/%d/%d, want %d/3/0/%d",
			st.Ingested, st.Batches, st.FailedBatches, st.DatabaseReports, len(traffic), oracle.Detector.Database().Len())
	}
}
