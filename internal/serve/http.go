package serve

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"adrdedup/internal/adr"
)

// MaxFieldBytes bounds any single string field of an ingested report. TGA
// narratives run to a few kilobytes; anything beyond this is a broken or
// hostile client, refused with 413 before it bloats the database.
const MaxFieldBytes = 64 << 10

// RequestError is the typed 4xx error every decoding or validation failure
// maps to. The decoder never panics and never returns an untyped error:
// FuzzIngestRequest pins both properties.
type RequestError struct {
	Status int // HTTP status, always in [400, 500)
	Msg    string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("serve: %s (HTTP %d)", e.Msg, e.Status)
}

var errEmptyBatch = &RequestError{Status: http.StatusBadRequest, Msg: "empty batch"}

func errBatchTooLarge(n, max int) error {
	return &RequestError{Status: http.StatusRequestEntityTooLarge,
		Msg: fmt.Sprintf("batch of %d reports exceeds limit %d", n, max)}
}

// matchJSON is the wire form of one flagged duplicate.
type matchJSON struct {
	CaseA     string  `json:"caseA"`
	CaseB     string  `json:"caseB"`
	Score     float64 `json:"score"`
	Duplicate bool    `json:"duplicate"`
}

// ingestResponse is the wire response of both ingest endpoints. Matches
// carries only the pairs flagged duplicate; Scored counts every scored
// candidate pair.
type ingestResponse struct {
	Ingested   int         `json:"ingested"`
	Scored     int         `json:"scored"`
	Duplicates int         `json:"duplicates"`
	Matches    []matchJSON `json:"matches"`
}

// errorResponse is the wire form of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP mux:
//
//	POST /v1/reports        one report object
//	POST /v1/reports:batch  {"reports": [...]} or a bare array
//	GET  /v1/stats          live Stats
//	GET  /healthz           200 while running, 503 otherwise
//	GET  /debug/vars        expvar (includes the adrdedupd stats var)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/reports", func(w http.ResponseWriter, r *http.Request) {
		s.handleIngest(w, r, true)
	})
	mux.HandleFunc("POST /v1/reports:batch", func(w http.ResponseWriter, r *http.Request) {
		s.handleIngest(w, r, false)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.RLock()
		state := s.state
		s.mu.RUnlock()
		if state == stateRunning {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": stateName(state)})
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, single bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
				Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "reading request body: " + err.Error()})
		return
	}
	var batch []adr.Report
	if single {
		rep, derr := DecodeReport(body)
		if derr == nil {
			batch = []adr.Report{rep}
		}
		err = derr
	} else {
		batch, err = DecodeBatch(body, s.cfg.MaxBatch)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}

	// The response carries the duplicates only, so only they are ranked
	// and named.
	dups, scored, err := s.submit(r.Context(), batch, true)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := ingestResponse{Ingested: len(batch), Scored: scored, Matches: make([]matchJSON, 0, len(dups))}
	for _, m := range dups {
		resp.Matches = append(resp.Matches, matchJSON{CaseA: m.CaseA, CaseB: m.CaseB, Score: m.Score, Duplicate: true})
	}
	resp.Duplicates = len(resp.Matches)
	writeJSON(w, http.StatusOK, resp)
}

// writeError maps pipeline errors to HTTP statuses by whose fault they are.
// A typed request error keeps its status, and a batch naming a case number
// the database already holds is the client's conflict, 409. Backpressure is
// 429; drain, a server not yet started and every other Detect failure are
// 503. Both carry a Retry-After hint: the server refused or rolled back the
// whole batch, so resending it is safe.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var re *RequestError
	status := http.StatusServiceUnavailable
	switch {
	case errors.As(err, &re):
		writeJSON(w, re.Status, errorResponse{Error: re.Msg})
		return
	case errors.Is(err, adr.ErrDuplicateCase):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	}
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.retryAfter+999_999_999)/1_000_000_000)))
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// The expvar integration publishes one "adrdedupd" var holding the stats of
// every live server in this process (tests run several), keyed by start
// order. Registered lazily on the first Start so importing the package does
// not pollute expvar.
var (
	expvarOnce sync.Once
	expvarMu   sync.Mutex
	expvarSrvs = map[*Server]int{}
	expvarSeq  int
)

func registerExpvar(s *Server) {
	expvarOnce.Do(func() {
		expvar.Publish("adrdedupd", expvar.Func(func() any {
			expvarMu.Lock()
			defer expvarMu.Unlock()
			type entry struct {
				ID int `json:"id"`
				Stats
			}
			out := make([]entry, 0, len(expvarSrvs))
			for srv, id := range expvarSrvs {
				out = append(out, entry{ID: id, Stats: srv.Stats()})
			}
			sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
			return out
		}))
	})
	expvarMu.Lock()
	expvarSeq++
	expvarSrvs[s] = expvarSeq
	expvarMu.Unlock()
}

func unregisterExpvar(s *Server) {
	expvarMu.Lock()
	delete(expvarSrvs, s)
	expvarMu.Unlock()
}
