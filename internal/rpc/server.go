package rpc

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net/http"

	"uots/internal/core"
	"uots/internal/obs"
	"uots/internal/trajdb"
)

// ShardServer serves one partition of the corpus over the wire: searches
// (any core.Request) and a health probe. It is an http.Handler factory —
// mount Handler on any listener. A ShardServer is immutable after
// construction and safe for concurrent use.
//
// The topology contract: every shard server and every router loads the
// same dataset with the same engine options and the same shard count
// (the partition is a function of trajectory ID and count alone), so
// keyword term IDs, trajectory IDs, and scores agree across the fleet.
// Results leave the server already remapped to global trajectory IDs.
type ShardServer struct {
	engine  *core.Engine    // nil for an empty partition
	globals []trajdb.TrajID // shard-local index → global ID; nil = identity
	shard   int
	shards  int
	mux     *http.ServeMux
	traces  *obs.TraceStore // shard-local spans of sampled requests, by trace ID
}

// ErrBadGlobals rejects a globals mapping that does not cover the
// engine's store.
var ErrBadGlobals = errors.New("rpc: globals mapping does not match the shard store")

// NewShardServer builds a server over one partition's engine. globals
// maps the engine's shard-local trajectory IDs to global corpus IDs
// (shard.BuildShardEngine returns it); nil means the engine already
// speaks global IDs (single-shard or whole-corpus serving). A nil engine
// serves an empty partition: every search answers success with no
// results, mirroring how the in-process executor skips empty shards.
// shardIdx/shards are echoed by the health probe so operators can verify
// a fleet's wiring.
func NewShardServer(engine *core.Engine, globals []trajdb.TrajID, shardIdx, shards int) (*ShardServer, error) {
	if engine != nil && globals != nil && len(globals) != engine.Store().NumTrajectories() {
		return nil, fmt.Errorf("%w: %d global IDs for %d trajectories",
			ErrBadGlobals, len(globals), engine.Store().NumTrajectories())
	}
	s := &ShardServer{
		engine:  engine,
		globals: append([]trajdb.TrajID(nil), globals...),
		shard:   shardIdx,
		shards:  shards,
		mux:     http.NewServeMux(),
		traces:  obs.NewTraceStore(0),
	}
	s.mux.HandleFunc("POST "+PathSearch, s.handleSearch)
	s.mux.HandleFunc("GET "+PathHealth, s.handleHealth)
	return s, nil
}

// Traces exposes the shard's retained spans of sampled requests, keyed
// by the trace ID the client stamped on the wire. cmd/uotsshard mounts
// its own GET /debug/trace/{id} over it so a cross-node trace can be
// inspected hop by hop.
func (s *ShardServer) Traces() *obs.TraceStore { return s.traces }

// Handler returns the server's HTTP handler: the RPC routes wrapped in
// panic recovery, so a malformed request can never take the shard down.
func (s *ShardServer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler { // net/http's own control flow
				panic(rec)
			}
			writeWireError(w, http.StatusInternalServerError, CodeInternal, fmt.Sprintf("panic: %v", rec))
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// statusOf maps a wire code onto its HTTP status. The client keys off
// the code, not the status; the status exists for proxies and logs.
func statusOf(code string) int {
	switch code {
	case CodeStoreFault, CodeInternal:
		return http.StatusInternalServerError
	case CodeBadQuery:
		return http.StatusBadRequest
	case CodeDeadline:
		return http.StatusGatewayTimeout
	case CodeCanceled:
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

// writeWireError is the only place a ShardServer emits an error
// response: status plus a gob-encoded coded Error envelope, the wire
// half of the serving layer's machine-readable error contract.
func writeWireError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(status)
	_ = gob.NewEncoder(w).Encode(&Error{Code: code, Msg: msg}) // the connection is the only failure mode
}

// writeEngineError maps an engine failure onto the coded envelope.
func writeEngineError(w http.ResponseWriter, err error) {
	code := errorToCode(err)
	writeWireError(w, statusOf(code), code, err.Error())
}

func writeGob(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(http.StatusOK)
	_ = gob.NewEncoder(w).Encode(v)
}

func (s *ShardServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	trajs := 0
	if s.engine != nil {
		trajs = s.engine.Store().NumTrajectories()
	}
	writeGob(w, &HealthResponse{Status: "ok", Shard: s.shard, Shards: s.shards, Trajs: trajs})
}

// remap rewrites shard-local trajectory IDs to global ones in place.
func (s *ShardServer) remap(results []core.Result) {
	if s.globals == nil {
		return
	}
	for i := range results {
		results[i].Traj = s.globals[results[i].Traj]
	}
}

// maxRequestBytes caps a request body, matching the public server's
// default: a router is trusted, but an unbounded gob decode lets any
// client that can reach the port make the shard allocate without limit.
const maxRequestBytes = 8 << 20

func (s *ShardServer) handleSearch(w http.ResponseWriter, r *http.Request) {
	// An undecodable body, an oversized one included, is the client's
	// fault: the coded bad_query envelope.
	var req SearchRequest
	if err := gob.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		writeWireError(w, http.StatusBadRequest, CodeBadQuery, "undecodable search request: "+err.Error())
		return
	}
	if s.engine == nil {
		writeGob(w, &SearchResponse{}) // empty partition: no candidates
		return
	}

	// A sampled request runs under a fresh recorder, retained under the
	// client's trace ID (when it sent one).
	ctx := r.Context()
	var rec *obs.TraceRecorder
	if req.Trace {
		rec = obs.NewTraceRecorder(0)
		if req.TraceID != "" {
			s.traces.Add(req.TraceID, rec)
		}
		ctx = obs.ContextWithTracer(ctx, rec)
	}
	// Seed the shard-local bound exchange with the client's piggybacked
	// global bound; read the final local threshold back out afterwards.
	var bound *core.SharedBound
	if req.SharesBound() {
		bound = &core.SharedBound{}
		bound.Raise(req.Bound)
		ctx = core.ContextWithSharedBound(ctx, bound)
	}
	results, stats, err := req.Run(ctx, s.engine)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	s.remap(results)
	resp := SearchResponse{Results: results, Stats: stats}
	if bound != nil {
		if v, ok := bound.Load(); ok {
			resp.Bound = v
		}
	}
	if rec != nil {
		resp.Span = rec.Events()
		resp.SpanDropped = rec.Dropped()
	}
	writeGob(w, &resp)
}
