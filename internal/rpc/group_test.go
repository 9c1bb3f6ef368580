package rpc

import (
	"context"
	"encoding/gob"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uots/internal/core"
	"uots/internal/obs"
	"uots/internal/trajdb"
)

// fakeReplica is a hand-driven shard server: it answers PathSearch with
// a canned response and can be switched into failure or blocking modes.
type fakeReplica struct {
	*httptest.Server
	results  []core.Result
	broken   atomic.Bool   // break the connection mid-response
	gate     chan struct{} // when non-nil, handlers block until it closes
	searches atomic.Int64
	probes   atomic.Int64
	identity atomic.Pointer[HealthResponse] // nil answers the zero identity
}

func newFakeReplica(t *testing.T, results []core.Result) *fakeReplica {
	t.Helper()
	f := &fakeReplica{results: results}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathSearch, func(w http.ResponseWriter, r *http.Request) {
		f.searches.Add(1)
		if f.broken.Load() {
			panic(http.ErrAbortHandler) // connection dies mid-flight
		}
		if f.gate != nil {
			select {
			case <-f.gate:
			case <-r.Context().Done():
				return
			}
		}
		var req SearchRequest
		if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("fake replica: decoding request: %v", err)
		}
		writeGob(w, &SearchResponse{Results: f.results, Bound: req.Bound})
	})
	mux.HandleFunc("GET "+PathHealth, func(w http.ResponseWriter, r *http.Request) {
		f.probes.Add(1)
		if f.broken.Load() {
			panic(http.ErrAbortHandler)
		}
		h := HealthResponse{Status: "ok"}
		if id := f.identity.Load(); id != nil {
			h = *id
		}
		writeGob(w, &h)
	})
	f.Server = httptest.NewServer(mux)
	t.Cleanup(f.Server.Close)
	return f
}

func resultsOf(id trajdb.TrajID) []core.Result {
	return []core.Result{{Traj: id, Score: 0.5}}
}

// fastCfg is a test config with no real waiting: zero-jitter
// nanosecond backoff.
func fastCfg() GroupConfig {
	return GroupConfig{MaxAttempts: 3, backoff: backoffConfig{Base: time.Nanosecond}}
}

func mustGroup(t *testing.T, bases []string, cfg GroupConfig, m *Metrics) *Group {
	t.Helper()
	g, err := NewGroup(bases, cfg, m)
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

func counterValue(t *testing.T, reg *obs.Registry, name string, labels ...string) uint64 {
	t.Helper()
	if len(labels) > 0 {
		return reg.CounterVec(name, "", "replica").With(labels...).Value()
	}
	return reg.Counter(name, "").Value()
}

// outcomeValue reads one series of uots_rpc_attempt_outcomes_total.
func outcomeValue(reg *obs.Registry, replica, outcome string) uint64 {
	return reg.CounterVec("uots_rpc_attempt_outcomes_total", "", "replica", "outcome").With(replica, outcome).Value()
}

// health reads replica i's error-budget state.
func health(g *Group, i int) (ejected bool, consecFails int) {
	r := g.replicas[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ejected, r.consecFails
}

func TestGroupFailoverToHealthyReplica(t *testing.T) {
	reg := obs.NewRegistry()
	bad := newFakeReplica(t, resultsOf(1))
	bad.broken.Store(true)
	good := newFakeReplica(t, resultsOf(2))
	g := mustGroup(t, []string{bad.URL, good.URL}, fastCfg(), NewMetrics(reg))

	resp, err := g.Search(context.Background(), SearchRequest{}, nil)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Traj != 2 {
		t.Fatalf("Search answered %+v, want replica good's results", resp.Results)
	}
	if got := counterValue(t, reg, "uots_rpc_retries_total"); got != 1 {
		t.Errorf("retries_total = %d, want 1", got)
	}
	if got := outcomeValue(reg, bad.URL, OutcomeTransport); got != 1 {
		t.Errorf("attempt_outcomes_total{%s,transport} = %d, want 1", bad.URL, got)
	}
}

func TestGroupEjectionAndReadmission(t *testing.T) {
	reg := obs.NewRegistry()
	bad := newFakeReplica(t, resultsOf(1))
	bad.broken.Store(true)
	good := newFakeReplica(t, resultsOf(2))
	g := mustGroup(t, []string{bad.URL, good.URL}, fastCfg(), NewMetrics(reg))

	// Each call that lands on bad charges one failure; threshold 3.
	for i := 0; i < 6; i++ {
		if _, err := g.Search(context.Background(), SearchRequest{}, nil); err != nil {
			t.Fatalf("Search %d: %v", i, err)
		}
	}
	if ejected, fails := health(g, 0); !ejected {
		t.Fatalf("bad replica not ejected after %d failures", fails)
	}
	if got := counterValue(t, reg, "uots_rpc_replica_ejections_total", bad.URL); got != 1 {
		t.Errorf("ejections_total{bad} = %d, want 1", got)
	}

	// Ejected replicas stop receiving traffic (healthy rotation only).
	before := bad.searches.Load()
	for i := 0; i < 4; i++ {
		if _, err := g.Search(context.Background(), SearchRequest{}, nil); err != nil {
			t.Fatalf("Search post-ejection: %v", err)
		}
	}
	if after := bad.searches.Load(); after != before {
		t.Errorf("ejected replica served %d more searches, want 0", after-before)
	}

	// Recovery: probes re-admit it.
	bad.broken.Store(false)
	g.ProbeAll()
	if ejected, _ := health(g, 0); ejected {
		t.Fatal("recovered replica still ejected after successful probe")
	}
	if got := counterValue(t, reg, "uots_rpc_replica_readmissions_total", bad.URL); got != 1 {
		t.Errorf("readmissions_total{bad} = %d, want 1", got)
	}
}

func TestGroupProbeFailuresEject(t *testing.T) {
	reg := obs.NewRegistry()
	bad := newFakeReplica(t, resultsOf(1))
	bad.broken.Store(true)
	good := newFakeReplica(t, resultsOf(2))
	g := mustGroup(t, []string{bad.URL, good.URL}, fastCfg(), NewMetrics(reg))

	for i := 0; i < failureThreshold; i++ {
		g.ProbeAll()
	}
	if ejected, _ := health(g, 0); !ejected {
		t.Fatalf("replica not ejected after %d failed probes", failureThreshold)
	}
	if got := counterValue(t, reg, "uots_rpc_probe_failures_total", bad.URL); got != failureThreshold {
		t.Errorf("probe_failures_total{bad} = %d, want %d", got, failureThreshold)
	}
}

// TestGroupProbeRefusesWrongPartition: a bound group treats a health
// answer naming another partition as a failed probe and sends that
// replica nothing — it would answer, with another partition's
// trajectories — until a probe sees the right identity.
func TestGroupProbeRefusesWrongPartition(t *testing.T) {
	reg := obs.NewRegistry()
	wrong := newFakeReplica(t, resultsOf(1))
	wrong.identity.Store(&HealthResponse{Status: "ok", Shard: 1, Shards: 2})
	right := newFakeReplica(t, resultsOf(2))
	right.identity.Store(&HealthResponse{Status: "ok", Shard: 0, Shards: 2})
	g := mustGroup(t, []string{wrong.URL, right.URL}, fastCfg(), NewMetrics(reg))
	g.Bind(0, 2)

	err := g.ProbeAll()
	if !errors.Is(err, ErrWrongPartition) || !strings.Contains(err.Error(), wrong.URL) ||
		strings.Contains(err.Error(), right.URL) {
		t.Fatalf("ProbeAll = %v, want ErrWrongPartition naming only %s", err, wrong.URL)
	}
	if got := counterValue(t, reg, "uots_rpc_probe_failures_total", wrong.URL); got != 1 {
		t.Errorf("probe_failures_total{wrong} = %d, want 1", got)
	}
	for i := 0; i < 4; i++ {
		resp, err := g.Search(context.Background(), SearchRequest{}, nil)
		if err != nil || len(resp.Results) != 1 || resp.Results[0].Traj != 2 {
			t.Fatalf("Search %d = (%+v, %v), want the right replica's answer", i, resp.Results, err)
		}
	}

	// Left alone, the mis-wired replica exhausts the group into a store
	// fault rather than answer.
	right.broken.Store(true)
	if _, err := g.Search(context.Background(), SearchRequest{}, nil); !errors.Is(err, core.ErrStoreFault) {
		t.Fatalf("Search with only the mis-wired replica up: err = %v, want a store fault", err)
	}
	if n := wrong.searches.Load(); n != 0 {
		t.Fatalf("mis-wired replica was sent %d searches, want 0", n)
	}

	// Restarted as the right partition, it is re-admitted by the next
	// probe (the unreachable sibling is not an identity error).
	wrong.identity.Store(&HealthResponse{Status: "ok", Shard: 0, Shards: 2})
	if err := g.ProbeAll(); err != nil {
		t.Fatalf("ProbeAll after the fix: %v", err)
	}
	resp, err := g.Search(context.Background(), SearchRequest{}, nil)
	if err != nil || len(resp.Results) != 1 || resp.Results[0].Traj != 1 {
		t.Fatalf("Search after the fix = (%+v, %v), want the re-admitted replica's answer", resp.Results, err)
	}
}

func TestGroupExhaustedIsStoreFault(t *testing.T) {
	reg := obs.NewRegistry()
	bad := newFakeReplica(t, resultsOf(1))
	bad.broken.Store(true)
	g := mustGroup(t, []string{bad.URL}, fastCfg(), NewMetrics(reg))

	_, err := g.Search(context.Background(), SearchRequest{}, nil)
	if !errors.Is(err, ErrGroupExhausted) {
		t.Fatalf("err = %v, want ErrGroupExhausted", err)
	}
	if !errors.Is(err, core.ErrStoreFault) {
		t.Fatalf("err = %v, want it to wrap core.ErrStoreFault for the shard policy layer", err)
	}
	if got := bad.searches.Load(); got != 3 {
		t.Errorf("dead replica attempted %d times, want MaxAttempts=3", got)
	}
	if got := counterValue(t, reg, "uots_rpc_group_exhausted_total"); got != 1 {
		t.Errorf("group_exhausted_total = %d, want 1", got)
	}
}

// TestGroupDefinitiveErrorNoRetry: coded engine errors return
// immediately — retrying a query every replica would reject identically
// only burns the error budget of healthy replicas.
func TestGroupDefinitiveErrorNoRetry(t *testing.T) {
	calls := atomic.Int64{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathSearch, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeWireError(w, http.StatusBadRequest, CodeBadQuery, "bad K")
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	g := mustGroup(t, []string{srv.URL}, fastCfg(), nil)

	_, err := g.Search(context.Background(), SearchRequest{}, nil)
	var we *Error
	if !errors.As(err, &we) || we.Code != CodeBadQuery {
		t.Fatalf("err = %v, want coded bad_query", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("definitive error retried: %d calls, want 1", got)
	}
	if _, fails := health(g, 0); fails != 0 {
		t.Errorf("definitive error charged the replica's budget: %d failures", fails)
	}
}

// TestGroupCallerCancellation: the caller's own cancellation surfaces
// as context.Canceled and never penalises the replica that happened to
// be serving the call.
func TestGroupCallerCancellation(t *testing.T) {
	slow := newFakeReplica(t, resultsOf(1))
	slow.gate = make(chan struct{})
	defer close(slow.gate)
	g := mustGroup(t, []string{slow.URL}, fastCfg(), nil)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Search(ctx, SearchRequest{}, nil)
		done <- err
	}()
	// Wait until the request is parked in the handler, then cancel.
	waitFor(t, func() bool { return slow.searches.Load() > 0 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ejected, fails := health(g, 0); fails != 0 || ejected {
		t.Errorf("caller cancellation charged the replica: %d failures, ejected %v", fails, ejected)
	}
}

// TestGroupAttemptTimeoutIsTransient: a per-attempt deadline with the
// caller still alive is a tail-latency event — retried, charged, and
// counted and traced as a transport outcome, not as a cancellation.
func TestGroupAttemptTimeoutIsTransient(t *testing.T) {
	reg := obs.NewRegistry()
	slow := newFakeReplica(t, resultsOf(1))
	slow.gate = make(chan struct{})
	defer close(slow.gate)
	fast := newFakeReplica(t, resultsOf(2))
	cfg := fastCfg()
	cfg.CallTimeout = 20 * time.Millisecond
	g := mustGroup(t, []string{slow.URL, fast.URL}, cfg, NewMetrics(reg))

	rec := obs.NewTraceRecorder(0)
	resp, err := g.Search(obs.ContextWithTracer(context.Background(), rec), SearchRequest{}, nil)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Traj != 2 {
		t.Fatalf("Search answered %+v, want failover to the fast replica", resp.Results)
	}
	if _, fails := health(g, 0); fails == 0 {
		t.Error("attempt timeout did not charge the slow replica")
	}
	if got := outcomeValue(reg, slow.URL, OutcomeTransport); got != 1 {
		t.Errorf("attempt_outcomes_total{slow,transport} = %d, want 1", got)
	}
	if got := outcomeValue(reg, slow.URL, OutcomeCanceled); got != 0 {
		t.Errorf("attempt_outcomes_total{slow,canceled} = %d, want 0", got)
	}
	events := rec.Events()
	if want := slow.URL + ": " + OutcomeTransport; len(events) < 2 || events[1].Kind != TraceAttemptErr || events[1].Note != want {
		t.Errorf("trace = %v, want %s %q second", events, TraceAttemptErr, want)
	}
}

// TestGroupBoundPiggyback: the request carries the shared bound's
// current value and the response's bound folds back in.
func TestGroupBoundPiggyback(t *testing.T) {
	var lastSeen atomic.Value // float64: Bound of the last request
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathSearch, func(w http.ResponseWriter, r *http.Request) {
		var req SearchRequest
		if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode: %v", err)
		}
		lastSeen.Store(req.Bound)
		writeGob(w, &SearchResponse{Bound: 0.75})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	g := mustGroup(t, []string{srv.URL}, fastCfg(), nil)

	bound := &core.SharedBound{}
	bound.Raise(0.25)
	if _, err := g.Search(context.Background(), SearchRequest{}, bound); err != nil {
		t.Fatalf("Search: %v", err)
	}
	if got := lastSeen.Load().(float64); got != 0.25 {
		t.Errorf("request carried bound %v, want 0.25", got)
	}
	if v, ok := bound.Load(); !ok || v != 0.75 {
		t.Errorf("shard bound not folded back: got (%v, %v), want (0.75, true)", v, ok)
	}
}

func TestGroupClosed(t *testing.T) {
	a := newFakeReplica(t, resultsOf(1))
	g := mustGroup(t, []string{a.URL}, fastCfg(), nil)
	g.Close()
	g.Close() // idempotent
	if _, err := g.Search(context.Background(), SearchRequest{}, nil); !errors.Is(err, ErrGroupClosed) {
		t.Fatalf("Search after Close: err = %v, want ErrGroupClosed", err)
	}
}

func TestGroupNoReplicas(t *testing.T) {
	if _, err := NewGroup(nil, GroupConfig{}, nil); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("NewGroup(nil) err = %v, want ErrNoReplicas", err)
	}
}

// waitFor spins until cond holds (bounded); the conditions it waits on
// are "request reached the handler" barriers, not timing assumptions.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
