package rpc

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net/http"

	"uots/internal/core"
	"uots/internal/obs"
	"uots/internal/trajdb"
)

// ShardServer serves one partition of the corpus over the wire: searches
// (any core.Request), the batch path, and a health probe. It is an
// http.Handler factory — mount Handler on any listener. A ShardServer is
// immutable after construction and safe for concurrent use.
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
	s.mux.HandleFunc("POST "+PathBatch, s.handleBatch)
	s.mux.HandleFunc("GET "+PathHealth, s.handleHealth)
	return s, nil
}

// Traces exposes the shard's retained spans of sampled requests, keyed
// by the trace ID the client stamped on the wire. cmd/uotsshard mounts
// its own GET /debug/trace/{id} over it so a cross-node trace can be
// inspected hop by hop.
func (s *ShardServer) Traces() *obs.TraceStore { return s.traces }

// beginTrace attaches a fresh recorder to ctx when the request asked
// for tracing, retaining it under the request's trace ID (when the
// client sent one). The returned recorder is nil for unsampled
// requests.
func (s *ShardServer) beginTrace(ctx context.Context, trace bool, traceID string) (context.Context, *obs.TraceRecorder) {
	if !trace {
		return ctx, nil
	}
	rec := obs.NewTraceRecorder(0)
	if traceID != "" {
		s.traces.Add(traceID, rec)
	}
	return obs.ContextWithTracer(ctx, rec), rec
}

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

// decodeRequest gob-decodes the capped body into req. On failure — an
// oversized body included — it answers with the coded bad_query envelope
// and reports false.
func decodeRequest(w http.ResponseWriter, r *http.Request, what string, req any) bool {
	if err := gob.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(req); err != nil {
		writeWireError(w, http.StatusBadRequest, CodeBadQuery, "undecodable "+what+" request: "+err.Error())
		return false
	}
	return true
}

func (s *ShardServer) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !decodeRequest(w, r, "search", &req) {
		return
	}
	if s.engine == nil {
		writeGob(w, &SearchResponse{}) // empty partition: no candidates
		return
	}

	// Seed the shard-local bound exchange with the client's piggybacked
	// global bound; read the final local threshold back out afterwards.
	ctx, rec := s.beginTrace(r.Context(), req.Trace, req.TraceID)
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

func (s *ShardServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeRequest(w, r, "batch", &req) {
		return
	}
	if s.engine == nil {
		resp := BatchResponse{Entries: make([]BatchEntry, len(req.Queries))}
		for i := range resp.Entries {
			resp.Entries[i].Index = i
		}
		resp.Stats.Queries = len(req.Queries)
		writeGob(w, &resp)
		return
	}
	ctx, rec := s.beginTrace(r.Context(), req.Trace, req.TraceID)
	out, bstats, err := s.engine.SearchBatch(ctx, req.Queries, req.Opts)
	// SearchBatch returns ctx.Err() as the batch-level error while still
	// filling every slot; a cancelled batch answers with the coded
	// envelope (the client's own context is authoritative anyway).
	if err != nil && out == nil {
		writeEngineError(w, err)
		return
	}
	if cerr := r.Context().Err(); cerr != nil {
		writeEngineError(w, cerr)
		return
	}
	resp := BatchResponse{Entries: make([]BatchEntry, len(out)), Stats: bstats}
	for i, br := range out {
		e := BatchEntry{Index: br.Index, Results: br.Results, Stats: br.Stats}
		if br.Err != nil {
			e.Results = nil
			e.ErrCode = errorToCode(br.Err)
			e.ErrMsg = br.Err.Error()
		} else {
			s.remap(e.Results)
		}
		resp.Entries[i] = e
	}
	if rec != nil {
		resp.Span = rec.Events()
		resp.SpanDropped = rec.Dropped()
	}
	writeGob(w, &resp)
}
