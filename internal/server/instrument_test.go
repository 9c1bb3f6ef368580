package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

var ridPattern = regexp.MustCompile(`^[0-9a-f]{16}$`)

func searchBody(t *testing.T) *bytes.Reader {
	t.Helper()
	raw, err := json.Marshal(map[string]any{"vertexIds": []int32{1, 2}, "k": 3})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(raw)
}

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	srv, _ := testServer(t)
	h := srv.Handler()

	req := httptest.NewRequest("POST", "/search", searchBody(t))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body.String())
	}
	id := rec.Header().Get(RequestIDHeader)
	if !ridPattern.MatchString(id) {
		t.Errorf("generated request id %q, want 16 hex chars", id)
	}
}

func TestRequestIDPropagatedAndInEnvelope(t *testing.T) {
	srv, _ := testServer(t)
	h := srv.Handler()

	// A well-formed inbound ID is honored end to end.
	req := httptest.NewRequest("POST", "/search", strings.NewReader("{not json"))
	req.Header.Set(RequestIDHeader, "upstream-id-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", rec.Code)
	}
	if got := rec.Header().Get(RequestIDHeader); got != "upstream-id-42" {
		t.Errorf("inbound id not echoed: got %q", got)
	}
	var env struct {
		Error     string `json:"error"`
		Code      string `json:"code"`
		RequestID string `json:"requestId"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("unparseable envelope: %v", err)
	}
	if env.RequestID != "upstream-id-42" {
		t.Errorf("envelope requestId = %q, want the inbound id", env.RequestID)
	}
	if env.Code != codeBadRequest {
		t.Errorf("envelope code = %q", env.Code)
	}

	// A hostile inbound ID (header injection, oversize) is regenerated.
	req = httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set(RequestIDHeader, "bad id\twith spaces")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(RequestIDHeader); !ridPattern.MatchString(got) {
		t.Errorf("hostile inbound id passed through as %q, want regenerated", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	h := srv.Handler()

	// Generate some traffic so counters and histograms are populated.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/search", searchBody(t)))
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE uots_http_requests_total counter",
		`uots_http_requests_total{route="/search",code="200"}`,
		"# TYPE uots_http_request_duration_seconds histogram",
		`uots_http_request_duration_seconds_bucket{route="/search",le="+Inf"}`,
		"# TYPE uots_http_in_flight_requests gauge",
		"uots_http_requests_shed_total",
		"uots_http_deadline_expired_total",
		"# TYPE uots_search_queries_total counter",
		"uots_search_visited_trajectories_total",
		"uots_search_candidates_total",
		"# TYPE uots_search_probe_settled_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	srv, _ := testServer(t)
	h := srv.Handler()

	req := httptest.NewRequest("POST", "/search", searchBody(t))
	req.Header.Set(TraceHeader, "1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("traced search: %d %s", rec.Code, rec.Body.String())
	}
	id := rec.Header().Get(RequestIDHeader)
	if id == "" {
		t.Fatal("traced search carries no request id")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace/%s: %d %s", id, rec.Code, rec.Body.String())
	}
	var trace struct {
		ID      string `json:"id"`
		Dropped int    `json:"dropped"`
		Events  []struct {
			Step int     `json:"step"`
			Kind string  `json:"kind"`
			Note string  `json:"note"`
			Val  float64 `json:"value"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &trace); err != nil {
		t.Fatalf("unparseable trace: %v", err)
	}
	if trace.ID != id {
		t.Errorf("trace id = %q, want %q", trace.ID, id)
	}
	if len(trace.Events) == 0 {
		t.Fatal("trace replay has no events")
	}
	if trace.Events[0].Kind != "begin" {
		t.Errorf("first replayed event kind = %q, want begin", trace.Events[0].Kind)
	}
	last := trace.Events[len(trace.Events)-1]
	if last.Kind != "terminate" || last.Note == "" {
		t.Errorf("last replayed event = %+v, want terminate with a cause", last)
	}

	// An un-traced request leaves nothing behind.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace/nosuchid", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown trace id: %d, want 404", rec.Code)
	}
	var env errorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Code != codeNotFound {
		t.Errorf("unknown trace envelope = %s (err %v)", rec.Body.String(), err)
	}
}

func TestStatsSearchTotalsGrow(t *testing.T) {
	srv, _ := testServer(t)
	h := srv.Handler()

	totals := func() map[string]any {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/stats: %d", rec.Code)
		}
		var parsed map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
			t.Fatal(err)
		}
		search, ok := parsed["search"].(map[string]any)
		if !ok {
			t.Fatalf("/stats has no search section: %s", rec.Body.String())
		}
		return search
	}

	before := totals()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/search", searchBody(t)))
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body.String())
	}
	after := totals()

	for _, key := range []string{"queriesTotal", "visitedTrajectoriesTotal", "candidatesTotal"} {
		b, _ := before[key].(float64)
		a, _ := after[key].(float64)
		if a <= b {
			t.Errorf("stats search.%s did not grow: before %v, after %v", key, b, a)
		}
	}
	// The probes' settles are a part of all settles.
	if probe, ok := after["probeSettledTotal"].(float64); !ok || probe > after["settledVerticesTotal"].(float64) {
		t.Errorf("stats search.probeSettledTotal = %v, settledVerticesTotal %v", after["probeSettledTotal"], after["settledVerticesTotal"])
	}
}
