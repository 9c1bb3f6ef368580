package core

import (
	"context"

	"uots/internal/obs"
)

// Search tracing. A tracer attached to the request context
// (obs.ContextWithTracer) receives one obs.SpanEvent per notable step
// of a search: source scheduling decisions, candidate admissions and
// prunes, bound refreshes, probes, and the termination cause. The
// serving layer attaches a bounded recorder per X-Trace request and
// replays it from /debug/trace/{id}.
//
// The disabled path is free: every emit site is guarded by a nil check
// on the state's tracer field, so an un-traced search performs one
// context lookup at entry and zero allocations afterwards (verified by
// TestDisabledTracerAddsZeroAllocs and BenchmarkSearchCtxTracer).
//
// Events carry the expansion-step ordinal, never wall-clock time, so a
// replayed query yields a bit-identical trace (pinned by
// testdata/stats.golden and shard's TestRemoteTraceDeterministicMerge).

// Trace event kinds emitted by the engine.
const (
	// TraceBegin opens a search: Value = |O|, Extra = |T|.
	TraceBegin = "begin"
	// TraceSourcePick records a scheduling switch to a new query
	// source: Source = the picked source, Value = its current radius.
	// Consecutive picks of the same source are coalesced.
	TraceSourcePick = "source_pick"
	// TraceSourceDone retires an exhausted source: Source = the source.
	TraceSourceDone = "source_done"
	// TraceAdmit admits a trajectory as a candidate: Traj = the
	// trajectory, Value = its textual score.
	TraceAdmit = "admit"
	// TraceComplete scores a candidate exactly: Traj, Value = combined
	// score, Extra = spatial part.
	TraceComplete = "complete"
	// TracePrune discards a candidate whose upper bound fell below the
	// bar: Traj, Value = its bound, Extra = the bar.
	TracePrune = "prune"
	// TraceProbe resolves a blocking trajectory's distances directly:
	// Traj = the probed trajectory.
	TraceProbe = "probe"
	// TraceBound is the periodic bound refresh: Value = the global
	// upper bound, Extra = the pruning bar (-1 while no bar exists).
	TraceBound = "bound"
	// TraceRerank is one ordered scoring of the order-aware sink: Traj
	// = the trajectory, Value = its ordered score, Extra = its unordered
	// score (never below Value).
	TraceRerank = "rerank"
	// TraceSelect is one diversified (MMR) pick: Step = the pick
	// ordinal, Traj = the picked trajectory, Value = its MMR score.
	TraceSelect = "mmr_pick"
	// TraceTerminate closes a search; Note carries the cause.
	TraceTerminate = "terminate"
)

// NoteCrossShard marks a TracePrune whose binding bar came from the
// cross-partition SharedBound rather than the local top-k threshold —
// the shard executor's bound exchange doing work the local search could
// not (counted in SearchStats.SharedBoundPrunes).
const NoteCrossShard = "xshard"

// Termination causes carried in TraceTerminate's Note.
const (
	// TermBound: the upper bound dropped below the bar (early stop).
	TermBound = "bound"
	// TermExhausted: every source drained its component.
	TermExhausted = "exhausted"
	// TermCancelled: the context was cancelled mid-search.
	TermCancelled = "cancelled"
	// TermTextOnly: the λ=0 fast path answered from the text index.
	TermTextOnly = "text_only"
)

// tracerFrom extracts the request tracer, tolerating nil contexts the
// same way newCanceller does.
func tracerFrom(ctx context.Context) obs.Tracer {
	if ctx == nil {
		return nil
	}
	return obs.TracerFromContext(ctx)
}

// emit sends one event when tracing is enabled. The nil guard lives
// here so call sites stay one line; the SpanEvent literal is built only
// after the guard, keeping the disabled path allocation-free.
func (st *expansionState) emit(kind string, source int, traj int64, value, extra float64, note string) {
	if st.trace == nil {
		return
	}
	st.trace.Emit(obs.SpanEvent{
		Step:   st.steps,
		Kind:   kind,
		Source: source,
		Traj:   traj,
		Value:  value,
		Extra:  extra,
		Note:   note,
	})
}
