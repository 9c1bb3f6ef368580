package rpc

import (
	"uots/internal/core"
	"uots/internal/obs"
)

// Transport constants shared by client and server.
const (
	// ContentType tags gob-encoded request and response bodies. Gob (not
	// JSON) because search results carry float64 scores and distances
	// that must round-trip bit-exactly — including the +Inf distance of
	// an unreachable query location, which JSON rejects outright.
	ContentType = "application/x-uots-gob"

	// PathSearch serves one search (any variant) over the replica's
	// shard.
	PathSearch = "/rpc/v1/search"
	// PathBatch serves a whole query batch over the replica's shard.
	PathBatch = "/rpc/v1/batch"
	// PathHealth is the liveness/identity probe.
	PathHealth = "/rpc/v1/health"
)

// SearchRequest is the wire form of one scattered shard search.
type SearchRequest struct {
	// Request is the search itself, modifier included. Keyword term IDs
	// are meaningful only when client and server were built from the same
	// vocabulary — the topology contract is that every node loads the
	// same dataset. A diversified request is diversified shard-locally,
	// exact only over this partition: the distributed executor does not
	// scatter it (it scatters the relevance pool as a plain search and
	// selects globally), but a shard can be queried standalone with it.
	core.Request
	// Bound is the client's best known global k-th-score lower bound at
	// send time (0 = none). The shard seeds its core.SharedBound with it
	// so a late or retried call starts pruning at the level the
	// rest of the scatter already reached. A pruning hint only: results
	// are identical with or without it.
	Bound float64
	// Trace asks the shard to run this search under a TraceRecorder and
	// return the recorded span in the response envelope, extending the
	// caller's trace across the wire. Tracing never changes results.
	Trace bool
	// TraceID is the parent trace's request ID. The shard retains its
	// local span under it (GET /debug/trace/{id} on the shard's debug
	// mux), so a cross-node trace can be inspected hop by hop.
	TraceID string
}

// SearchResponse is the wire form of one shard's answer.
type SearchResponse struct {
	// Results carry trajectory IDs remapped to the global corpus — the
	// shard-local numbering never crosses the wire.
	Results []core.Result
	// Stats is the shard-side work accounting.
	Stats core.SearchStats
	// Bound is the shard's final local k-th threshold (0 = none), the
	// piggybacked update the client folds into its scatter-wide
	// core.SharedBound.
	Bound float64
	// Span is the shard-side trace replay, present only when the request
	// set Trace. Events carry the shard engine's step ordinals; the
	// client replays them into the parent trace as a child span.
	Span []obs.SpanEvent
	// SpanDropped is the number of shard-side span events lost over the
	// shard recorder's limit (the replay also ends with a synthetic
	// obs.TraceTruncated marker when non-zero).
	SpanDropped int
}

// BatchRequest is the wire form of a whole-batch scatter: the shard runs
// every query and answers per slot.
type BatchRequest struct {
	Queries []core.Query
	Opts    core.BatchOptions
	// Trace and TraceID mirror SearchRequest: the shard runs the whole
	// batch under one TraceRecorder (batch workers share it) and returns
	// the span in the response envelope.
	Trace   bool
	TraceID string
}

// BatchEntry is one query's outcome within a batch response. Errors
// cross the wire as (code, message) pairs — core.BatchResult.Err is an
// interface gob cannot carry — and the client rebuilds canonical errors
// with codeToError.
type BatchEntry struct {
	Index   int
	Results []core.Result // global trajectory IDs
	Stats   core.SearchStats
	ErrCode string // empty on success
	ErrMsg  string
}

// Err rebuilds the entry's canonical error: nil when the entry
// succeeded, otherwise the coded envelope decoded back into the
// sentinel-preserving error codeToError produces.
func (e BatchEntry) Err() error {
	if e.ErrCode == "" {
		return nil
	}
	return codeToError(e.ErrCode, e.ErrMsg)
}

// BatchResponse is the wire form of a shard's batch answer.
type BatchResponse struct {
	Entries []BatchEntry
	Stats   core.BatchStats
	// Span and SpanDropped mirror SearchResponse (one shared recorder
	// for the whole batch, so cross-query event order is scheduling-
	// dependent — per-query order is not).
	Span        []obs.SpanEvent
	SpanDropped int
}

// HealthResponse answers the probe endpoint.
type HealthResponse struct {
	Status string // "ok"
	Shard  int    // partition index i
	Shards int    // partition count N
	Trajs  int    // trajectories served by this shard (0 = empty shard)
}
