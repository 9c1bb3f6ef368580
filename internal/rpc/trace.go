package rpc

import (
	"context"
	"errors"

	"uots/internal/obs"
)

// Span kinds emitted by the client-side robustness ladder into the
// caller's trace. Together with the shard-side span replayed between a
// TraceRemoteSpan / TraceRemoteSpanEnd bracket, they render one
// cross-node tree in GET /debug/trace/{id}: every attempt, retry,
// ejection, and re-admission that served the query, attributed to the
// replica (Note) it concerned.
//
// Determinism: the attempt, retry, and remote-span kinds are emitted
// only from the retry loop, on the calling goroutine, so a replayed
// query with the same topology produces the same event sequence.
// The health-transition kinds (TraceEject / TraceReadmit) ride the
// attempt that caused them and appear only in failure scenarios. The
// only run-dependent values are the wall-clock attributions, confined
// to the Extra field of TraceAttemptOK / TraceAttemptErr — mask Extra
// on those two kinds to compare traces across runs.
const (
	// TraceAttempt marks one RPC attempt being issued. Note is the
	// replica base URL, Value the retry ordinal (0 = first try).
	TraceAttempt = "rpc_attempt"
	// TraceAttemptOK marks an attempt answering successfully. Note is
	// the replica, Extra its wall-clock latency in milliseconds.
	TraceAttemptOK = "rpc_attempt_ok"
	// TraceAttemptErr marks an attempt failing. Note is
	// "replica: outcome" (see the Outcome* labels), Extra the wall-clock
	// latency in milliseconds.
	TraceAttemptErr = "rpc_attempt_err"
	// TraceRetry marks the ladder rotating to another attempt after a
	// transient failure. Value is the upcoming retry ordinal, Extra the
	// seeded backoff delay in milliseconds (deterministic per seed).
	TraceRetry = "rpc_retry"
	// TraceEject marks a replica exhausting its error budget and leaving
	// rotation. Note is the replica.
	TraceEject = "rpc_eject"
	// TraceReadmit marks an ejected replica re-entering rotation after a
	// success. Note is the replica.
	TraceReadmit = "rpc_readmit"
	// TraceExhausted marks the whole ladder failing: every retry and
	// failover attempt lost. Value is the attempt budget, Note the last
	// failure's outcome label.
	TraceExhausted = "rpc_exhausted"
	// TraceRemoteSpan opens a remote child span: the events that follow,
	// until the matching TraceRemoteSpanEnd, were recorded on the shard
	// server that answered. Note is the serving replica, Value the
	// remote event count, Extra the remote dropped count.
	TraceRemoteSpan = "rpc_remote_span"
	// TraceRemoteSpanEnd closes the remote child span. Note is the
	// serving replica.
	TraceRemoteSpanEnd = "rpc_remote_span_end"
)

// Outcome labels classifying how one RPC attempt ended — the "outcome"
// label of uots_rpc_attempt_outcomes_total and the Note suffix of
// TraceAttemptErr events.
const (
	// OutcomeOK: the replica answered.
	OutcomeOK = "ok"
	// OutcomeTransport: the transport failed (dial, connection, decode,
	// attempt timeout) or the server answered CodeInternal — retryable,
	// charged against the replica's error budget.
	OutcomeTransport = "transport"
	// OutcomeEngine: the shard engine answered with a definitive error
	// (store fault, bad query) — not the replica's fault.
	OutcomeEngine = "engine"
	// OutcomeCanceled: the caller's context ended (cancellation,
	// deadline) — the attempt's fate says nothing about the replica.
	OutcomeCanceled = "canceled"
)

// classifyOutcome maps one attempt error onto its Outcome* label. A
// transport error is classified before the context sentinels, because
// an attempt timeout is a *TransportError wrapping
// context.DeadlineExceeded (see callOnce) and is the replica's fault,
// not the caller's.
func classifyOutcome(err error) string {
	switch {
	case err == nil:
		return OutcomeOK
	case IsTransient(err):
		return OutcomeTransport
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return OutcomeCanceled
	default:
		return OutcomeEngine
	}
}

// emitRPC emits one client-side ladder event. The RPC layer has no
// query step ordinal, source, or trajectory — events carry the ladder's
// own coordinates (replica in Note, ordinals in Value) instead.
func emitRPC(t obs.Tracer, kind, note string, value, extra float64) {
	if t == nil {
		return
	}
	t.Emit(obs.SpanEvent{Kind: kind, Source: -1, Traj: -1, Value: value, Extra: extra, Note: note})
}

// replaySpan merges a shard's remote span into the parent trace as a
// child bracket: TraceRemoteSpan, the remote events verbatim (their
// Step ordinals are the shard engine's own), TraceRemoteSpanEnd. A
// remote span that recorded nothing (an empty partition) still gets an
// empty bracket so the tree shows the hop happened.
func replaySpan(t obs.Tracer, replica string, span []obs.SpanEvent, dropped int) {
	if t == nil {
		return
	}
	emitRPC(t, TraceRemoteSpan, replica, float64(len(span)), float64(dropped))
	for _, ev := range span {
		t.Emit(ev)
	}
	emitRPC(t, TraceRemoteSpanEnd, replica, 0, 0)
}
