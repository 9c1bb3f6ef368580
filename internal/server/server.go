// Package server exposes a trajectory-search engine as a JSON HTTP API —
// the deployment surface a trip-recommendation service would put in front
// of the library. Handlers are plain net/http and fully covered by
// httptest-based tests; cmd/uotsserve wires them to a listener.
//
// The serving layer is hardened for production traffic: every search
// request runs under an optional deadline (503 "deadline_exceeded" on
// expiry), concurrency is capped by a weighted semaphore that sheds excess
// load (429 "overloaded"), request bodies are size-capped
// (413 "body_too_large"), handler panics become 500s instead of killing
// the process, and a client that disconnects mid-search cancels the
// engine's expansion within one poll interval (499 "client_closed_request"
// is recorded on the server side). Error bodies always carry a
// machine-readable "code" next to the human-readable "error".
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"uots/internal/core"
	"uots/internal/geo"
	"uots/internal/ingest"
	"uots/internal/obs"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// DefaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is 0.
const DefaultMaxBodyBytes = 8 << 20

// batchWeight is the semaphore weight of one /batch request: a batch fans
// out to an engine worker pool, so it consumes several search slots.
const batchWeight = 4

// statusClientClosedRequest is the nginx convention for "client closed
// the connection before the response was ready"; net/http has no name
// for it. The response never reaches the client — it exists for logs,
// tests, and proxies.
const statusClientClosedRequest = 499

// Machine-readable error codes carried in every error body.
const (
	codeBadRequest   = "bad_request"
	codeNotFound     = "not_found"
	codeOverloaded   = "overloaded"
	codeDeadline     = "deadline_exceeded"
	codeCanceled     = "client_closed_request"
	codeBodyTooLarge = "body_too_large"
	codeStoreFailure = "store_failure"
	codeInternal     = "internal_error"
	codeUnavailable  = "unavailable"
	codeDraining     = "draining"
)

// SearchBackend serves the default (expansion) algorithm: the entry
// points a /search request's core.Request dispatches onto (core.Backend)
// plus the /batch path. core.Engine satisfies it, as do shard.Executor
// and shard.RemoteExecutor — wiring one through Config.Searcher scales
// the default algorithm out without touching the handlers, and batches
// then scatter whole to every shard. The explicit exhaustive and textfirst
// algorithms always run on the monolithic engine: they are baselines and
// diagnostics, not the serving path.
//
// The handlers speak core.Request and reach a backend only through
// Request.Run. The seam still spells out five named search methods, and
// the sharded executors still carry one-line adapters for them, only
// because benchmark/layers implements this interface and calls those
// names, and a refactor may not edit the benchmark that gates it.
// Collapsing the seam to Search(ctx, core.Request) plus the batch method
// (ROADMAP item 2's last step) needs a benchmark change that re-points
// its spanBackend and runRequest first.
type SearchBackend interface {
	core.Backend
	SearchBatch(ctx context.Context, queries []core.Query, opts core.BatchOptions) ([]core.BatchResult, core.BatchStats, error)
}

var _ SearchBackend = (*core.Engine)(nil)

// Config tunes the serving hardening. The zero value disables deadlines
// and load shedding and uses DefaultMaxBodyBytes.
type Config struct {
	// Timeout bounds each search request's engine work (0 = no deadline).
	// On expiry the response is 503 with code "deadline_exceeded".
	Timeout time.Duration
	// MaxInFlight caps concurrently served search weight (/search and
	// /trajectory count 1, /batch counts batchWeight). 0 = unlimited.
	// Saturated requests are shed with 429, code "overloaded".
	MaxInFlight int
	// MaxBodyBytes caps request bodies (0 = DefaultMaxBodyBytes).
	// Oversized bodies get 413, code "body_too_large".
	MaxBodyBytes int64
	// Metrics receives the server's instruments. nil creates a private
	// registry; share one to co-locate several servers' metrics or to
	// scrape from a separate debug listener.
	Metrics *obs.Registry
	// TraceDepth bounds how many recent request traces /debug/trace
	// retains (0 = obs.DefaultTraceDepth).
	TraceDepth int
	// SlowQueryThreshold enables the always-on slow-query flight
	// recorder: every /search and /batch request runs traced (no X-Trace
	// header needed), and requests whose wall clock reaches the
	// threshold keep their spans in a bounded ring served by
	// GET /debug/slow. Zero disables the recorder and its hidden
	// tracing overhead.
	SlowQueryThreshold time.Duration
	// SlowQueryDepth bounds how many slow queries the flight recorder
	// retains, oldest evicted first (0 = obs.DefaultSlowQueryDepth).
	SlowQueryDepth int
	// Logger receives one access-log line per request, tagged with the
	// request ID. nil disables request logging (the default, keeping
	// handlers quiet under test).
	Logger *log.Logger
	// Searcher, when non-nil, serves the default-algorithm /search
	// variants and /batch instead of the engine itself (e.g. a
	// shard.Executor). The engine still backs /trajectory, /stats and the
	// explicit baseline algorithms. Mutually exclusive with Live.
	Searcher SearchBackend
	// Live, when non-nil, turns on the write path: POST /trajectories
	// and GET /ingest/stats are mounted, and every read request resolves
	// its engine from the ingest service's MVCC snapshot cache instead
	// of the fixed boot engine — a request pins one immutable snapshot
	// generation for its whole lifetime, so concurrent ingest never
	// blocks or tears it. The engine argument to NewWithConfig may be
	// nil in this mode (an empty store answers reads with 503
	// "unavailable" until the first commit).
	Live *ingest.Service
}

// Server serves search requests over one engine. Create with New or
// NewWithConfig and mount via Handler.
type Server struct {
	engine  *core.Engine
	backend SearchBackend   // serves the default-algorithm /search variants
	live    *ingest.Service // non-nil in live-ingest mode (engine resolved per request)
	graph   *roadnet.Graph
	vocab   *textual.Vocab
	index   *roadnet.VertexIndex
	mux     *http.ServeMux

	cfg Config
	sem *semaphore // nil when MaxInFlight is 0

	registry     *obs.Registry
	metrics      *serverMetrics
	traceMetrics *obs.TraceMetrics
	traces       *obs.TraceStore
	slow         *obs.SlowRecorder // nil when SlowQueryThreshold is 0
	logger       *log.Logger
}

// New creates a server over engine with a zero Config. vocab translates
// request keywords (nil disables textual queries); idx snaps
// coordinate-based locations (nil builds a fresh index).
func New(engine *core.Engine, vocab *textual.Vocab, idx *roadnet.VertexIndex) *Server {
	return NewWithConfig(engine, vocab, idx, Config{})
}

// NewWithConfig creates a server with explicit hardening configuration.
// engine may be nil only when cfg.Live is set (the live store may still
// be empty at boot; engines are then resolved per request).
func NewWithConfig(engine *core.Engine, vocab *textual.Vocab, idx *roadnet.VertexIndex, cfg Config) *Server {
	var g *roadnet.Graph
	if cfg.Live != nil {
		g = cfg.Live.Store().Graph()
	} else {
		g = engine.Store().Graph()
	}
	if idx == nil {
		idx = roadnet.NewVertexIndex(g, 0)
	}
	s := &Server{engine: engine, backend: cfg.Searcher, live: cfg.Live, graph: g, vocab: vocab, index: idx, mux: http.NewServeMux(), cfg: cfg}
	if s.backend == nil {
		s.backend = engine
	}
	if cfg.MaxInFlight > 0 {
		s.sem = newSemaphore(int64(cfg.MaxInFlight))
	}
	s.registry = cfg.Metrics
	if s.registry == nil {
		s.registry = obs.NewRegistry()
	}
	s.metrics = newServerMetrics(s.registry)
	s.traceMetrics = obs.NewTraceMetrics(s.registry)
	s.traces = obs.NewTraceStore(cfg.TraceDepth)
	s.slow = obs.NewSlowRecorder(cfg.SlowQueryThreshold, cfg.SlowQueryDepth)
	s.logger = cfg.Logger
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.Handle("GET /metrics", s.registry.Handler())
	s.mux.HandleFunc("GET /debug/trace/{id}", s.handleDebugTrace)
	s.mux.HandleFunc("GET /debug/slow", s.handleDebugSlow)
	s.mux.HandleFunc("POST /search", s.guarded(1, s.handleSearch))
	s.mux.HandleFunc("POST /batch", s.guarded(batchWeight, s.handleBatch))
	s.mux.HandleFunc("GET /trajectory/{id}", s.guarded(1, s.handleTrajectory))
	if s.live != nil {
		s.mux.HandleFunc("POST /trajectories", s.guarded(1, s.handleIngest))
		s.mux.HandleFunc("GET /ingest/stats", s.handleIngestStats)
	}
	return s
}

// resolve pins the request to one engine and search backend. In live
// mode the engine comes from the ingest service's generation-keyed
// cache: the snapshot under it is immutable, so everything the request
// reads through it — results, trajectory payloads, keyword names — is
// one consistent point-in-time view no matter how much is ingested
// meanwhile. Without Live it returns the fixed boot engine/backend.
func (s *Server) resolve() (*core.Engine, SearchBackend, error) {
	if s.live == nil {
		return s.engine, s.backend, nil
	}
	eng, _, err := s.live.Engine()
	if err != nil {
		return nil, nil, err
	}
	return eng, eng, nil
}

// writeResolveError answers a request whose engine could not be built —
// in practice an empty live store before the first commit.
func writeResolveError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, core.ErrEmptyStore) {
		writeError(w, r, http.StatusServiceUnavailable, codeUnavailable,
			"no trajectories ingested yet; retry after the first commit")
		return
	}
	writeError(w, r, http.StatusInternalServerError, codeInternal, err.Error())
}

// Handler returns the server's HTTP handler: the route mux wrapped in the
// instrumentation, panic-recovery, and body-cap middleware. Liveness,
// stats, metrics, and trace replay stay outside the load-shedding guard so
// the server remains observable under saturation; instrumentation sits
// outermost so even shed and panicking requests are counted and carry a
// request ID.
func (s *Server) Handler() http.Handler {
	return s.instrument(s.recoverPanics(s.capBody(s.mux)))
}

// recoverPanics converts handler panics into 500 responses instead of
// letting one bad request kill the whole process. Store faults escaping a
// raw store access (outside an engine call) keep their specific code.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler { // net/http's own control flow
				panic(rec)
			}
			s.metrics.panics.Inc()
			if se, ok := rec.(*trajdb.StoreError); ok {
				writeError(w, r, http.StatusInternalServerError, codeStoreFailure, "storage failure: "+se.Error())
				return
			}
			writeError(w, r, http.StatusInternalServerError, codeInternal, fmt.Sprintf("internal error: %v", rec))
		}()
		next.ServeHTTP(w, r)
	})
}

// capBody bounds every request body; json decoding surfaces the cap as an
// *http.MaxBytesError, answered with 413.
func (s *Server) capBody(next http.Handler) http.Handler {
	limit := s.cfg.MaxBodyBytes
	if limit <= 0 {
		limit = DefaultMaxBodyBytes
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		next.ServeHTTP(w, r)
	})
}

// guarded wraps a search handler with load shedding and the per-request
// deadline. weight is the request's cost against Config.MaxInFlight.
func (s *Server) guarded(weight int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.sem != nil {
			granted, ok := s.sem.acquire(weight)
			if !ok {
				s.metrics.shed.Inc()
				writeError(w, r, http.StatusTooManyRequests, codeOverloaded,
					fmt.Sprintf("server at capacity (%d in-flight units); retry later", s.cfg.MaxInFlight))
				return
			}
			defer s.sem.release(granted)
		}
		if s.cfg.Timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// SearchRequest is the POST /search body. Locations may be given as
// vertex IDs, as planar coordinates to snap, or mixed.
type SearchRequest struct {
	// VertexIDs are network vertices to visit (optional).
	VertexIDs []int32 `json:"vertexIds,omitempty"`
	// Points are planar coordinates (km) snapped to the nearest vertices
	// (optional).
	Points [][2]float64 `json:"points,omitempty"`
	// Keywords is the free-text travel intention (tokenized server-side).
	Keywords string `json:"keywords,omitempty"`
	// Lambda is the spatial/textual preference in [0,1] (default 0.5).
	Lambda *float64 `json:"lambda,omitempty"`
	// K is the number of results (default 5).
	K int `json:"k,omitempty"`
	// Algorithm selects expansion (default), exhaustive or textfirst.
	Algorithm string `json:"algorithm,omitempty"`
	// Window optionally restricts departure times ("HH:MM-HH:MM").
	Window string `json:"window,omitempty"`
	// OrderAware switches to itinerary-order matching.
	OrderAware bool `json:"orderAware,omitempty"`
	// Theta switches to the threshold variant: every trajectory scoring
	// at least theta, best first (k is ignored).
	Theta *float64 `json:"theta,omitempty"`
	// DiversifyMu switches to the diversified variant with the given
	// relevance/diversity trade-off in [0,1].
	DiversifyMu *float64 `json:"diversifyMu,omitempty"`
}

// SearchResponse is the POST /search reply.
type SearchResponse struct {
	Results []ResultJSON `json:"results"`
	Stats   StatsJSON    `json:"stats"`
}

// ResultJSON is one recommended trajectory.
type ResultJSON struct {
	Trajectory int32     `json:"trajectory"`
	Score      float64   `json:"score"`
	Spatial    float64   `json:"spatial"`
	Textual    float64   `json:"textual"`
	DistsKm    []float64 `json:"distsKm"`
	Departs    string    `json:"departs"`
	Samples    int       `json:"samples"`
	Keywords   []string  `json:"keywords,omitempty"`
}

// StatsJSON summarizes the work a query performed.
type StatsJSON struct {
	ElapsedMs           float64 `json:"elapsedMs"`
	VisitedTrajectories int     `json:"visitedTrajectories"`
	Candidates          int     `json:"candidates"`
	EarlyTerminated     bool    `json:"earlyTerminated"`
}

type errorJSON struct {
	Error     string `json:"error"`
	Code      string `json:"code,omitempty"`
	RequestID string `json:"requestId,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// In live mode the count comes straight from the dynamic store —
	// no snapshot build, so /stats stays cheap and accurate mid-burst.
	var numTrajs int
	if s.live != nil {
		numTrajs = s.live.Store().Len()
	} else {
		numTrajs = s.engine.Store().NumTrajectories()
	}
	var inFlight int64
	if s.sem != nil {
		inFlight = s.sem.inFlight()
	}
	m := s.metrics
	resp := map[string]any{
		"vertices":     s.graph.NumVertices(),
		"edges":        s.graph.NumEdges(),
		"trajectories": numTrajs,
		"serving": map[string]any{
			"inFlight":             inFlight,
			"maxInFlight":          s.cfg.MaxInFlight,
			"shedTotal":            m.shed.Value(),
			"deadlineExpiredTotal": m.expired.Value(),
			"timeoutMs":            s.cfg.Timeout.Milliseconds(),
		},
		// Cumulative expansion-work totals across every query served,
		// mirroring the uots_search_* registry counters.
		"search": map[string]any{
			"queriesTotal":             m.searchQueries.Value(),
			"visitedTrajectoriesTotal": m.searchVisited.Value(),
			"scanEventsTotal":          m.searchScans.Value(),
			"settledVerticesTotal":     m.searchSettled.Value(),
			"probeSettledTotal":        m.searchProbeSet.Value(),
			"candidatesTotal":          m.searchCandidates.Value(),
			"textScoredTotal":          m.searchTextScored.Value(),
			"probesTotal":              m.searchProbes.Value(),
			"earlyTerminatedTotal":     m.searchEarlyTerm.Value(),
		},
	}
	if v := s.vocab; v != nil {
		resp["vocabulary"] = v.Size()
	}
	if s.live != nil {
		resp["liveIngest"] = true
		resp["generation"] = s.live.Store().Generation()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTrajectory(w http.ResponseWriter, r *http.Request) {
	// strconv, not Sscanf: "12abc" must be a 400, not trajectory 12.
	id64, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "bad trajectory id")
		return
	}
	id := int32(id64)
	eng, _, rerr := s.resolve()
	if rerr != nil {
		writeResolveError(w, r, rerr)
		return
	}
	st := eng.Store()
	if id < 0 || int(id) >= st.NumTrajectories() {
		writeError(w, r, http.StatusNotFound, codeNotFound, "trajectory not found")
		return
	}
	t := st.Traj(trajdb.TrajID(id))
	type sampleJSON struct {
		Vertex int32      `json:"vertex"`
		Point  [2]float64 `json:"point"`
		Time   string     `json:"time"`
	}
	samples := make([]sampleJSON, t.Len())
	for i, smp := range t.Samples {
		p := s.graph.Point(smp.V)
		samples[i] = sampleJSON{
			Vertex: int32(smp.V),
			Point:  [2]float64{p.X, p.Y},
			Time:   clock(smp.T),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":       id,
		"samples":  samples,
		"keywords": s.keywordNames(st, trajdb.TrajID(id)),
	})
}

// decodeJSON decodes a request body that must be exactly one JSON value
// using only fields v declares, distinguishing the body-cap limit from
// plain malformed JSON. A misspelt field or trailing data is a 400, not
// a different question answered with a 200.
func decodeJSON(r *http.Request, v any) (status int, code string, err error) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var mbe *http.MaxBytesError
	if err = dec.Decode(v); err == nil {
		// One value only: the next token must be the end of the body.
		if _, err = dec.Token(); err == io.EOF {
			return http.StatusOK, "", nil
		}
		if !errors.As(err, &mbe) {
			err = errors.New("unexpected data after the JSON value")
		}
	}
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge, codeBodyTooLarge,
			fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
	}
	return http.StatusBadRequest, codeBadRequest, fmt.Errorf("bad request body: %w", err)
}

// writeEngineError maps an engine-side failure onto the documented error
// contract: deadline expiry → 503, client cancellation → 499, storage
// failure → 500, anything else → 400 (a query the engine rejected).
func (s *Server) writeEngineError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.expired.Inc()
		writeError(w, r, http.StatusServiceUnavailable, codeDeadline,
			fmt.Sprintf("search deadline (%s) exceeded", s.cfg.Timeout))
	case errors.Is(err, context.Canceled):
		writeError(w, r, statusClientClosedRequest, codeCanceled, "client closed request")
	case errors.Is(err, core.ErrStoreFault):
		writeError(w, r, http.StatusInternalServerError, codeStoreFailure, err.Error())
	default:
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err.Error())
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if status, code, err := decodeJSON(r, &req); err != nil {
		writeError(w, r, status, code, err.Error())
		return
	}
	sreq, err := s.buildRequest(req)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	eng, backend, rerr := s.resolve()
	if rerr != nil {
		writeResolveError(w, r, rerr)
		return
	}

	ctx := r.Context()
	var results []core.Result
	var stats core.SearchStats
	algo := strings.ToLower(req.Algorithm)
	switch {
	case isExpansion(algo):
		results, stats, err = sreq.Run(ctx, backend)
	case sreq.Variant() != "search":
		// The baselines answer the plain top-k query only; dropping the
		// modifier would answer a different question with a 200.
		err = fmt.Errorf("algorithm %q takes no window, orderAware, theta or diversifyMu (request is %s)", req.Algorithm, sreq.Variant())
	case algo == "exhaustive":
		results, stats, err = eng.ExhaustiveSearchCtx(ctx, sreq.Query)
	case algo == "textfirst":
		results, stats, err = eng.TextFirstSearchCtx(ctx, sreq.Query)
	default:
		err = fmt.Errorf("unknown algorithm %q", req.Algorithm)
	}
	if err != nil {
		s.writeEngineError(w, r, err)
		return
	}
	s.metrics.recordSearch(stats)

	resp := SearchResponse{
		Results: make([]ResultJSON, len(results)),
		Stats:   statsJSON(stats),
	}
	st := eng.Store()
	for i, res := range results {
		resp.Results[i] = s.resultJSON(st, res)
	}
	writeJSON(w, http.StatusOK, resp)
}

// isExpansion reports whether a lower-cased "algorithm" field selects the
// default expansion search.
func isExpansion(algo string) bool { return algo == "" || algo == "expansion" }

func statsJSON(stats core.SearchStats) StatsJSON {
	return StatsJSON{
		ElapsedMs:           float64(stats.Elapsed.Microseconds()) / 1000,
		VisitedTrajectories: stats.VisitedTrajectories,
		Candidates:          stats.Candidates,
		EarlyTerminated:     stats.EarlyTerminated,
	}
}

// resultJSON renders one result against st — the store of the engine
// the request resolved, so live-mode responses stay consistent with the
// snapshot that produced the scores.
func (s *Server) resultJSON(st core.TrajStore, res core.Result) ResultJSON {
	t := st.Traj(res.Traj)
	return ResultJSON{
		Trajectory: int32(res.Traj),
		Score:      res.Score,
		Spatial:    res.Spatial,
		Textual:    res.Textual,
		DistsKm:    res.Dists,
		Departs:    clock(t.Start()),
		Samples:    t.Len(),
		Keywords:   s.keywordNames(st, res.Traj),
	}
}

// BatchRequest is the POST /batch body: many independent searches
// answered concurrently by the engine's worker pool.
type BatchRequest struct {
	Queries []SearchRequest `json:"queries"`
	// Workers sizes the goroutine pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Shared is accepted and ignored: it toggled a batch planner, since
	// removed, and a body that still carries it is answered as one
	// without it rather than refused by the strict decoder.
	Shared *bool `json:"shared,omitempty"`
}

// BatchResponse is the POST /batch reply; Responses align with the
// request's Queries, and failed entries carry Error instead of Results.
type BatchResponse struct {
	Responses   []BatchEntry `json:"responses"`
	WallClockMs float64      `json:"wallClockMs"`
}

// BatchEntry is one query's outcome within a batch.
type BatchEntry struct {
	Results []ResultJSON `json:"results,omitempty"`
	Stats   *StatsJSON   `json:"stats,omitempty"`
	Error   string       `json:"error,omitempty"`
}

// maxBatchQueries bounds one /batch request.
const maxBatchQueries = 1024

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if status, code, err := decodeJSON(r, &req); err != nil {
		writeError(w, r, status, code, err.Error())
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "batch needs at least one query")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, r, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("batch of %d exceeds the %d-query limit", len(req.Queries), maxBatchQueries))
		return
	}
	resp := BatchResponse{Responses: make([]BatchEntry, len(req.Queries))}
	queries := make([]core.Query, len(req.Queries))
	valid := make([]bool, len(req.Queries))
	for i, sr := range req.Queries {
		breq, err := s.buildRequest(sr)
		if err == nil && (breq.Variant() != "search" || !isExpansion(strings.ToLower(sr.Algorithm))) {
			err = errors.New("batch entries are plain top-k queries; send window, orderAware, theta, diversifyMu and algorithm to /search")
		}
		if err != nil {
			resp.Responses[i].Error = err.Error()
			continue
		}
		queries[i] = breq.Query
		valid[i] = true
	}
	// Run only the valid subset through the batch engine, preserving
	// positions. When nothing validated, skip the engine entirely — the
	// per-entry errors are the whole answer.
	idx := make([]int, 0, len(queries))
	live := make([]core.Query, 0, len(queries))
	for i, ok := range valid {
		if ok {
			idx = append(idx, i)
			live = append(live, queries[i])
		}
	}
	if len(live) > 0 {
		eng, backend, rerr := s.resolve()
		if rerr != nil {
			writeResolveError(w, r, rerr)
			return
		}
		out, stats, err := backend.SearchBatch(r.Context(), live, core.BatchOptions{Workers: req.Workers})
		if err != nil {
			s.writeEngineError(w, r, err)
			return
		}
		pinned := eng.Store()
		s.metrics.recordBatch(stats)
		for j, o := range out {
			entry := &resp.Responses[idx[j]]
			if o.Err != nil {
				entry.Error = o.Err.Error()
				continue
			}
			s.metrics.recordSearch(o.Stats)
			st := statsJSON(o.Stats)
			entry.Stats = &st
			entry.Results = make([]ResultJSON, len(o.Results))
			for k, res := range o.Results {
				entry.Results[k] = s.resultJSON(pinned, res)
			}
		}
		resp.WallClockMs = float64(stats.WallClock.Microseconds()) / 1000
	}
	writeJSON(w, http.StatusOK, resp)
}

// buildRequest assembles the engine request from a /search body: the
// query, and the modifier its fields ask for. Conflicting modifiers are
// carried through for Request.Validate to reject by name.
func (s *Server) buildRequest(req SearchRequest) (core.Request, error) {
	q := core.Query{Lambda: 0.5, K: req.K}
	if req.Lambda != nil {
		q.Lambda = *req.Lambda
	}
	if q.K == 0 {
		q.K = 5
	}
	for _, id := range req.VertexIDs {
		if id < 0 || int(id) >= s.graph.NumVertices() {
			return core.Request{}, fmt.Errorf("vertex %d outside the network", id)
		}
		q.Locations = append(q.Locations, roadnet.VertexID(id))
	}
	for _, p := range req.Points {
		v, _ := s.index.Nearest(geo.Point{X: p[0], Y: p[1]})
		if v < 0 {
			return core.Request{}, fmt.Errorf("cannot snap point (%g, %g)", p[0], p[1])
		}
		q.Locations = append(q.Locations, v)
	}
	if len(q.Locations) == 0 {
		return core.Request{}, errors.New("request needs vertexIds or points")
	}
	if req.Keywords != "" {
		if s.vocab == nil {
			return core.Request{}, errors.New("this dataset has no vocabulary; keywords unsupported")
		}
		q.Keywords = s.vocab.LookupAll(textual.Tokenize(req.Keywords))
	}
	out := core.Request{Query: q, Theta: req.Theta, OrderAware: req.OrderAware}
	if req.Window != "" {
		win, err := parseWindow(req.Window)
		if err != nil {
			return core.Request{}, err
		}
		out.Window = &win
	}
	if req.DiversifyMu != nil {
		out.Diversify = &core.DiversifyOptions{Mu: *req.DiversifyMu}
	}
	return out, nil
}

func (s *Server) keywordNames(st core.TrajStore, id trajdb.TrajID) []string {
	if s.vocab == nil {
		return nil
	}
	var names []string
	for _, term := range st.Keywords(id) {
		if name, ok := s.vocab.Term(term); ok {
			names = append(names, name)
		}
	}
	return names
}

func parseWindow(sw string) (core.TimeWindow, error) {
	parts := strings.Split(sw, "-")
	if len(parts) != 2 {
		return core.TimeWindow{}, fmt.Errorf("bad window %q (want HH:MM-HH:MM)", sw)
	}
	from, err := parseClock(parts[0])
	if err != nil {
		return core.TimeWindow{}, err
	}
	to, err := parseClock(parts[1])
	if err != nil {
		return core.TimeWindow{}, err
	}
	return core.TimeWindow{From: from, To: to}, nil
}

func parseClock(sc string) (float64, error) {
	// strconv, not Sscanf: "12:30xx" must be rejected, not truncated.
	hs, ms, ok := strings.Cut(strings.TrimSpace(sc), ":")
	if !ok {
		return 0, fmt.Errorf("bad time %q (want HH:MM)", sc)
	}
	h, errH := strconv.Atoi(hs)
	m, errM := strconv.Atoi(ms)
	if errH != nil || errM != nil {
		return 0, fmt.Errorf("bad time %q (want HH:MM)", sc)
	}
	if h < 0 || h > 23 || m < 0 || m > 59 {
		return 0, fmt.Errorf("time %q out of range", sc)
	}
	return float64(h*3600 + m*60), nil
}

// clock renders seconds-of-day as HH:MM, wrapping times outside one day
// (a trajectory generated to depart at 25:10 renders as 01:10, not
// "25:10").
func clock(seconds float64) string {
	const day = 24 * 3600
	sec := int(seconds) % day
	if sec < 0 {
		sec += day
	}
	return fmt.Sprintf("%02d:%02d", sec/3600, sec%3600/60)
}

// writeJSON writes v with the given status, logging nothing: handlers are
// pure functions of the request for testability.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the connection is the only failure mode here
}

// writeError writes the machine-readable error body of the serving
// contract: {"error": <human text>, "code": <stable code>, "requestId":
// <correlation id>}. The request carries the ID assigned by the
// instrument middleware; a nil request (pre-middleware tests) omits it.
func writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	var id string
	if r != nil {
		id = RequestIDFromContext(r.Context())
	}
	writeJSON(w, status, errorJSON{Error: msg, Code: code, RequestID: id})
}

// Serve runs the server on addr until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests get up
// to drain to finish (their own deadlines still apply), and stragglers
// are cut off — closing their connections cancels their request contexts,
// which aborts the searches inside. A nil error is a clean, fully drained
// shutdown; errors from a failed listener pass through.
func (s *Server) Serve(ctx context.Context, addr string, drain time.Duration) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err // listener failed before any shutdown was asked for
	case <-ctx.Done():
	}
	//uots:allow ctxflow -- shutdown drain: the caller's ctx is already done, the drain window needs a fresh deadline
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(drainCtx)
	if err != nil {
		srv.Close() // drain window expired: cancel the stragglers
	}
	<-errc // ListenAndServe has returned http.ErrServerClosed
	return err
}
