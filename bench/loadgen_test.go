package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestPoissonScheduleIsDeterministicInSeed(t *testing.T) {
	const n, span = 500, 25 * time.Second
	a := poissonSchedule(7, n, span)
	b := poissonSchedule(7, n, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, n, span)) {
		t.Fatal("different seeds gave the same schedule")
	}
	var gaps []float64
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("due times go backwards at %d: %v then %v", i, a[i-1], a[i])
		}
		gaps = append(gaps, (a[i] - a[i-1]).Seconds())
	}
	if a[n-1] != span {
		t.Fatalf("last arrival due at %v, want exactly %v", a[n-1], span)
	}
	// Exponential gaps have a median of ln 2 = 0.69 of their mean; evenly
	// spaced ones would have 1.0.
	sort.Float64s(gaps)
	if med := gaps[len(gaps)/2] / (span.Seconds() / n); med < 0.55 || med > 0.85 {
		t.Errorf("median gap is %.2f of the mean gap, want about 0.69", med)
	}
}

// stallingServer answers one request at a time, holding each for hold, and
// records when each arrived.
type stallingServer struct {
	hold time.Duration

	mu       sync.Mutex // serializes handling, like the daemon's detector
	arriveMu sync.Mutex
	arrivals []time.Time
}

func (s *stallingServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.arriveMu.Lock()
	s.arrivals = append(s.arrivals, time.Now())
	s.arriveMu.Unlock()
	s.mu.Lock()
	time.Sleep(s.hold)
	s.mu.Unlock()
	_ = json.NewEncoder(w).Encode(wireResponse{Ingested: 1, Matches: []wireMatch{}})
}

func bodies(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(`{}`)
	}
	return out
}

func TestOpenLoopStallInflatesLatencyFromDueNotTheSchedule(t *testing.T) {
	const n, gap, hold = 8, 10 * time.Millisecond, 60 * time.Millisecond
	stub := &stallingServer{hold: hold}
	srv := httptest.NewServer(stub)
	defer srv.Close()
	schedule := make([]time.Duration, n)
	for i := range schedule {
		schedule[i] = time.Duration(i) * gap
	}
	start := time.Now()
	res := runLoad(context.Background(), loadConfig{
		url: srv.URL, bodies: bodies(n), conns: n, schedule: schedule,
	})
	if len(res.outcomes) != n {
		t.Fatalf("%d outcomes, want %d", len(res.outcomes), n)
	}
	sort.Slice(res.outcomes, func(i, j int) bool { return res.outcomes[i].index < res.outcomes[j].index })
	// The server needs n*hold = 480 ms for what was due within 70 ms, so the
	// last request waited for every earlier one. Its latency from due shows
	// that; its send time does not.
	last := res.outcomes[n-1]
	if !last.ok {
		t.Fatalf("last request failed: %s", last.err)
	}
	if want := time.Duration(n)*hold - schedule[n-1]; last.latency < want-5*time.Millisecond {
		t.Errorf("last request latency %v, want at least %v: queueing behind the stall is missing", last.latency, want)
	}
	for _, o := range res.outcomes {
		if o.lag > 40*time.Millisecond {
			t.Errorf("request %d was sent %v late although a connection was free", o.index, o.lag)
		}
	}
	sort.Slice(stub.arrivals, func(i, j int) bool { return stub.arrivals[i].Before(stub.arrivals[j]) })
	if late := stub.arrivals[n-1].Sub(start) - schedule[n-1]; late > 60*time.Millisecond {
		t.Errorf("last request reached the server %v after it was due: the stall delayed the schedule", late)
	}
}

func TestOpenLoopOutOfConnectionsShowsAsLag(t *testing.T) {
	stub := &stallingServer{hold: 50 * time.Millisecond}
	srv := httptest.NewServer(stub)
	defer srv.Close()
	res := runLoad(context.Background(), loadConfig{
		url: srv.URL, bodies: bodies(4), conns: 1, schedule: make([]time.Duration, 4),
	})
	var maxLag time.Duration
	for _, o := range res.outcomes {
		maxLag = max(maxLag, o.lag)
	}
	if maxLag < 140*time.Millisecond {
		t.Errorf("four requests due at once over one connection held 50ms each: max lag %v, want about 150ms", maxLag)
	}
}

func TestClosedLoopStopsAtWindowAndCapturesMatches(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		_ = json.NewEncoder(w).Encode(wireResponse{Ingested: 1, Scored: 3, Duplicates: 1,
			Matches: []wireMatch{{CaseA: "A", CaseB: "B", Score: 0.5, Duplicate: true}}})
	}))
	defer srv.Close()
	res := runLoad(context.Background(), loadConfig{
		url: srv.URL, bodies: bodies(10000), conns: 2, window: 100 * time.Millisecond,
	})
	if n := len(res.outcomes); n < 4 || n > 60 {
		t.Fatalf("2 clients at 5ms per request for 100ms attempted %d requests", n)
	}
	if res.wall > time.Second {
		t.Fatalf("run lasted %v past a 100ms window", res.wall)
	}
	seen := make(map[int]bool)
	for _, o := range res.outcomes {
		if !o.ok || o.resp.Scored != 3 || len(o.resp.Matches) != 1 || o.resp.Matches[0].CaseB != "B" {
			t.Fatalf("outcome %+v lost the response", o)
		}
		if seen[o.index] {
			t.Fatalf("request %d sent twice", o.index)
		}
		seen[o.index] = true
	}
}

func TestRetryAfterIsHonouredAndBounded(t *testing.T) {
	var mu sync.Mutex
	refusals := map[string]int{"/twice": 2, "/always": 1 << 30}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		left := refusals[r.URL.Path]
		refusals[r.URL.Path] = left - 1
		mu.Unlock()
		if left > 0 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		_ = json.NewEncoder(w).Encode(wireResponse{Ingested: 1, Matches: []wireMatch{}})
	}))
	defer srv.Close()
	run := func(path string) outcome {
		res := runLoad(context.Background(), loadConfig{
			url: srv.URL + path, bodies: bodies(1), conns: 1, window: time.Second,
		})
		if len(res.outcomes) != 1 {
			t.Fatalf("%s: %d outcomes, want 1", path, len(res.outcomes))
		}
		return res.outcomes[0]
	}
	if o := run("/twice"); !o.ok || o.throttled != 2 {
		t.Errorf("two 429s then 200: ok=%v throttled=%d err=%q, want ok after 2 retries", o.ok, o.throttled, o.err)
	}
	if o := run("/always"); o.ok || o.throttled != 3 || o.err == "" {
		t.Errorf("endless 429s: ok=%v throttled=%d err=%q, want failure after 3 retries", o.ok, o.throttled, o.err)
	}
}

func TestPercentileMatchesSortedSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 19, 20, 21, 199, 200, 1000} {
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int63n(50) // ties included
		}
		s := sortedCopy(v)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 1} {
			// Reference: the smallest value with at least q of the sample at or below it.
			want := s[n-1]
			for _, x := range s {
				atOrBelow := sort.Search(n, func(i int) bool { return s[i] > x })
				if float64(atOrBelow) >= q*float64(n) {
					want = x
					break
				}
			}
			if got := percentile(s, q); got != want {
				t.Errorf("n=%d q=%v: percentile %d, reference %d", n, q, got, want)
			}
		}
	}
}

func TestP95RefusesSmallSamples(t *testing.T) {
	if _, ok := p95(make([]int64, p95MinSamples-1)); ok {
		t.Errorf("p95 accepted %d samples", p95MinSamples-1)
	}
	if _, ok := p95(make([]int64, p95MinSamples)); !ok {
		t.Errorf("p95 refused %d samples", p95MinSamples)
	}
}
