package rpc

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"uots/internal/core"
	"uots/internal/obs"
)

func TestClassifyOutcome(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, OutcomeOK},
		{context.Canceled, OutcomeCanceled},
		{context.DeadlineExceeded, OutcomeCanceled},
		{&TransportError{Replica: "r", Err: errors.New("dial")}, OutcomeTransport},
		// An attempt timeout with the caller still alive (see callOnce).
		{&TransportError{Replica: "r", Err: fmt.Errorf("attempt aborted: %w", context.DeadlineExceeded)}, OutcomeTransport},
		{&Error{Code: CodeInternal, Msg: "panic"}, OutcomeTransport},
		{fmt.Errorf("shard: %w", core.ErrStoreFault), OutcomeEngine},
		{&Error{Code: CodeBadQuery, Msg: "no locations"}, OutcomeEngine},
	}
	for _, tc := range cases {
		if got := classifyOutcome(tc.err); got != tc.want {
			t.Errorf("classifyOutcome(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// kindsOf projects a recorded trace onto its event-kind sequence.
func kindsOf(events []obs.SpanEvent) []string {
	out := make([]string, len(events))
	for i, ev := range events {
		out[i] = ev.Kind
	}
	return out
}

// tracedReplica answers PathSearch with a canned remote span when the
// request asks for tracing, and records the trace fields it saw.
func tracedReplica(t *testing.T, span []obs.SpanEvent, dropped int) (*httptest.Server, *atomic.Value) {
	t.Helper()
	var lastReq atomic.Value // SearchRequest
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathSearch, func(w http.ResponseWriter, r *http.Request) {
		var req SearchRequest
		if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode: %v", err)
		}
		lastReq.Store(req)
		resp := SearchResponse{Results: resultsOf(1)}
		if req.Trace {
			resp.Span = span
			resp.SpanDropped = dropped
		}
		writeGob(w, &resp)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &lastReq
}

// TestGroupSearchTracedAttempt: a traced call stamps the wire request,
// brackets the attempt in the caller's trace, and replays the remote
// span as a child bracket attributed to the serving replica.
func TestGroupSearchTracedAttempt(t *testing.T) {
	remote := []obs.SpanEvent{
		{Step: 0, Kind: "begin", Source: -1, Traj: -1},
		{Step: 7, Kind: "terminate", Source: -1, Traj: -1, Note: "exhausted"},
	}
	srv, lastReq := tracedReplica(t, remote, 3)
	g := mustGroup(t, []string{srv.URL}, fastCfg(), nil)

	rec := obs.NewTraceRecorder(0)
	ctx := obs.ContextWithTracer(context.Background(), rec)
	ctx = obs.ContextWithTraceID(ctx, "req-777")
	if _, err := g.Search(ctx, SearchRequest{}, nil); err != nil {
		t.Fatalf("Search: %v", err)
	}

	req := lastReq.Load().(SearchRequest)
	if !req.Trace || req.TraceID != "req-777" {
		t.Errorf("wire request trace fields = (%v, %q), want (true, req-777)", req.Trace, req.TraceID)
	}

	events := rec.Events()
	wantKinds := []string{
		TraceAttempt, TraceAttemptOK,
		TraceRemoteSpan, "begin", "terminate", TraceRemoteSpanEnd,
	}
	if got := kindsOf(events); len(got) != len(wantKinds) {
		t.Fatalf("event kinds = %v, want %v", got, wantKinds)
	} else {
		for i := range wantKinds {
			if got[i] != wantKinds[i] {
				t.Fatalf("event kinds = %v, want %v", got, wantKinds)
			}
		}
	}
	if events[0].Note != srv.URL || events[0].Value != 0 || events[0].Extra != 0 {
		t.Errorf("attempt event = %+v, want replica %s, ordinal 0", events[0], srv.URL)
	}
	open := events[2]
	if open.Note != srv.URL || open.Value != 2 || open.Extra != 3 {
		t.Errorf("remote-span bracket = %+v, want (replica, 2 events, 3 dropped)", open)
	}
	// The remote events replay verbatim, shard step ordinals intact.
	if events[3].Step != 0 || events[4].Step != 7 || events[4].Note != "exhausted" {
		t.Errorf("remote events mangled: %+v / %+v", events[3], events[4])
	}
}

// TestGroupSearchUntracedStaysDark: without a context tracer the wire
// request carries no trace flag and no span work happens anywhere.
func TestGroupSearchUntracedStaysDark(t *testing.T) {
	srv, lastReq := tracedReplica(t, []obs.SpanEvent{{Kind: "begin"}}, 0)
	g := mustGroup(t, []string{srv.URL}, fastCfg(), nil)
	resp, err := g.Search(context.Background(), SearchRequest{}, nil)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	req := lastReq.Load().(SearchRequest)
	if req.Trace || req.TraceID != "" {
		t.Errorf("untraced request carried trace fields: %+v", req)
	}
	if resp.Span != nil {
		t.Errorf("untraced response carried a span: %+v", resp.Span)
	}
}

// TestGroupRetryTraceSequence: a broken first replica produces a failed
// attempt, a retry marker with the seeded backoff delay, then the
// failover attempt — all in the caller's trace.
func TestGroupRetryTraceSequence(t *testing.T) {
	bad := newFakeReplica(t, resultsOf(1))
	bad.broken.Store(true)
	good := newFakeReplica(t, resultsOf(2))
	g := mustGroup(t, []string{bad.URL, good.URL}, fastCfg(), nil)

	rec := obs.NewTraceRecorder(0)
	ctx := obs.ContextWithTracer(context.Background(), rec)
	if _, err := g.Search(ctx, SearchRequest{}, nil); err != nil {
		t.Fatalf("Search: %v", err)
	}
	events := rec.Events()
	wantKinds := []string{
		TraceAttempt, TraceAttemptErr, TraceRetry,
		TraceAttempt, TraceAttemptOK,
		TraceRemoteSpan, TraceRemoteSpanEnd,
	}
	got := kindsOf(events)
	if fmt.Sprint(got) != fmt.Sprint(wantKinds) {
		t.Fatalf("event kinds = %v, want %v", got, wantKinds)
	}
	if want := bad.URL + ": " + OutcomeTransport; events[1].Note != want {
		t.Errorf("failed attempt note = %q, want %q", events[1].Note, want)
	}
	if events[2].Value != 1 {
		t.Errorf("retry ordinal = %v, want 1", events[2].Value)
	}
	if events[3].Note != good.URL || events[3].Value != 1 {
		t.Errorf("failover attempt = %+v, want replica %s at ordinal 1", events[3], good.URL)
	}
}

// TestGroupExhaustedTraced: every attempt failing leaves a terminal
// exhaustion marker carrying the attempt budget.
func TestGroupExhaustedTraced(t *testing.T) {
	bad := newFakeReplica(t, resultsOf(1))
	bad.broken.Store(true)
	cfg := fastCfg()
	g := mustGroup(t, []string{bad.URL}, cfg, nil)

	rec := obs.NewTraceRecorder(0)
	ctx := obs.ContextWithTracer(context.Background(), rec)
	if _, err := g.Search(ctx, SearchRequest{}, nil); !errors.Is(err, ErrGroupExhausted) {
		t.Fatalf("Search err = %v, want ErrGroupExhausted", err)
	}
	events := rec.Events()
	last := events[len(events)-1]
	if last.Kind != TraceExhausted || last.Value != float64(cfg.MaxAttempts) || last.Note != OutcomeTransport {
		t.Fatalf("terminal event = %+v, want %s with budget %d and outcome %s",
			last, TraceExhausted, cfg.MaxAttempts, OutcomeTransport)
	}
	// The single replica trips its threshold-3 budget on the third
	// failure: the ejection rides the attempt that caused it.
	var sawEject bool
	for _, ev := range events {
		if ev.Kind == TraceEject && ev.Note == bad.URL {
			sawEject = true
		}
	}
	if !sawEject {
		t.Errorf("no %s event in %v", TraceEject, kindsOf(events))
	}
}

// TestAttemptOutcomeMetrics: the uots_rpc_attempt_outcomes_total family
// classifies attempts per replica.
func TestAttemptOutcomeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	bad := newFakeReplica(t, resultsOf(1))
	bad.broken.Store(true)
	good := newFakeReplica(t, resultsOf(2))
	g := mustGroup(t, []string{bad.URL, good.URL}, fastCfg(), NewMetrics(reg))
	if _, err := g.Search(context.Background(), SearchRequest{}, nil); err != nil {
		t.Fatalf("Search: %v", err)
	}
	vec := reg.CounterVec("uots_rpc_attempt_outcomes_total", "", "replica", "outcome")
	if got := vec.With(bad.URL, OutcomeTransport).Value(); got != 1 {
		t.Errorf("attempt_outcomes{bad,transport} = %d, want 1", got)
	}
	if got := vec.With(good.URL, OutcomeOK).Value(); got != 1 {
		t.Errorf("attempt_outcomes{good,ok} = %d, want 1", got)
	}
}

// TestServerSearchSpanRoundTrip: a traced wire request runs the shard
// engine under a recorder, answers with the span, and retains it under
// the trace ID for the shard's own /debug/trace endpoint.
func TestServerSearchSpanRoundTrip(t *testing.T) {
	f := testServerFixture(t)
	s, err := NewShardServer(f.engine, nil, 0, 1)
	if err != nil {
		t.Fatalf("NewShardServer: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL, nil)

	rng := rand.New(rand.NewPCG(31, 0))
	q := f.query(rng, 5)
	resp, err := c.Search(context.Background(), SearchRequest{
		Request: core.Request{Query: q}, Trace: true, TraceID: "trace-xyz",
	})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(resp.Span) == 0 {
		t.Fatal("traced request answered with an empty span")
	}
	if first := resp.Span[0].Kind; first != core.TraceBegin {
		t.Errorf("first remote event kind = %q, want %q", first, core.TraceBegin)
	}
	if last := resp.Span[len(resp.Span)-1].Kind; last != core.TraceTerminate {
		t.Errorf("last remote event kind = %q, want %q", last, core.TraceTerminate)
	}

	rec, ok := s.Traces().Get("trace-xyz")
	if !ok {
		t.Fatal("shard did not retain the trace under its ID")
	}
	if got := len(rec.Events()); got != len(resp.Span) {
		t.Errorf("retained trace has %d events, wire span %d", got, len(resp.Span))
	}

	// An untraced request must not leave a recorder behind.
	if _, err := c.Search(context.Background(), SearchRequest{Request: core.Request{Query: q}}); err != nil {
		t.Fatalf("untraced Search: %v", err)
	}
	if ids := s.Traces().IDs(); len(ids) != 1 {
		t.Errorf("trace store IDs = %v, want only trace-xyz", ids)
	}
}
