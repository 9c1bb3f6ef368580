package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"
	"time"

	"uots/internal/core"
	"uots/internal/obs"
	"uots/internal/rpc"
	"uots/internal/shard"
)

// Request instrumentation: every request through Handler is wrapped by the
// instrument middleware, which assigns a request ID, optionally attaches a
// search tracer, and feeds the process-wide metrics registry. The
// middleware sits outermost so even shed, panicking, and oversized
// requests are counted and carry an ID.

// Header names of the observability contract.
const (
	// RequestIDHeader carries the request ID. An inbound value is
	// honored (so IDs propagate across services); otherwise the server
	// generates one. The response always echoes it.
	RequestIDHeader = "X-Request-ID"
	// TraceHeader set to "1" records the request's search-expansion
	// events for replay from /debug/trace/{id}.
	TraceHeader = "X-Trace"
)

type requestIDKey struct{}

// RequestIDFromContext returns the request ID assigned by the instrument
// middleware, or "" outside a request.
func RequestIDFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// newRequestID draws a 16-hex-char random ID. Randomness is fine here:
// IDs are correlation handles, not part of any reproducible search path.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "rid-rand-unavailable" // crypto/rand failing is a platform fault
	}
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID accepts a client-supplied ID only when it is short and
// header/log-safe; anything else is discarded and regenerated.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}

// serverMetrics bundles the registry instruments the serving layer
// updates. All names follow the uots_* convention (see CONTRIBUTING.md).
type serverMetrics struct {
	reqTotal *obs.CounterVec // uots_http_requests_total{route,code}
	reqDur   *obs.HistogramVec
	inFlight *obs.Gauge
	shed     *obs.Counter
	expired  *obs.Counter
	panics   *obs.Counter

	searchQueries    *obs.Counter
	searchVisited    *obs.Counter
	searchScans      *obs.Counter
	searchSettled    *obs.Counter
	searchProbeSet   *obs.Counter
	searchCandidates *obs.Counter
	searchTextScored *obs.Counter
	searchProbes     *obs.Counter
	searchEarlyTerm  *obs.Counter

	batch *obs.BatchMetrics // uots_batch_* (the /batch path's run totals)
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		reqTotal: reg.CounterVec("uots_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		reqDur: reg.HistogramVec("uots_http_request_duration_seconds",
			"End-to-end HTTP request latency in seconds.", obs.DefLatencyBuckets, "route"),
		inFlight: reg.Gauge("uots_http_in_flight_requests",
			"Requests currently being served."),
		shed: reg.Counter("uots_http_requests_shed_total",
			"Requests shed with 429 by the load-shedding semaphore."),
		expired: reg.Counter("uots_http_deadline_expired_total",
			"Search requests answered 503 because the per-request deadline expired."),
		panics: reg.Counter("uots_http_panics_total",
			"Handler panics converted to 500 responses."),

		searchQueries: reg.Counter("uots_search_queries_total",
			"Search queries the engine completed successfully."),
		searchVisited: reg.Counter("uots_search_visited_trajectories_total",
			"Distinct trajectories touched across all searches (the paper's data-access metric)."),
		searchScans: reg.Counter("uots_search_scan_events_total",
			"(source, trajectory) scan events during expansion."),
		searchSettled: reg.Counter("uots_search_settled_vertices_total",
			"Dijkstra-settled vertices across all query sources and probes."),
		searchProbeSet: reg.Counter("uots_search_probe_settled_total",
			"Vertices settled by the query-rooted search of the text probes and the order-aware rerank (a part of the settled-vertices total)."),
		searchCandidates: reg.Counter("uots_search_candidates_total",
			"Trajectories whose exact score was computed."),
		searchTextScored: reg.Counter("uots_search_text_scored_total",
			"Trajectories scored by the textual index."),
		searchProbes: reg.Counter("uots_search_probes_total",
			"Adaptive text-probe distance computations."),
		searchEarlyTerm: reg.Counter("uots_search_early_terminated_total",
			"Searches that stopped early because the upper bound fell below the bar."),

		batch: obs.NewBatchMetrics(reg),
	}
}

// recordSearch accumulates one completed query's work counters.
func (m *serverMetrics) recordSearch(st core.SearchStats) {
	m.searchQueries.Inc()
	m.searchVisited.AddInt(st.VisitedTrajectories)
	m.searchScans.AddInt(st.ScanEvents)
	m.searchSettled.AddInt(st.SettledVertices)
	m.searchProbeSet.AddInt(st.ProbeSettled)
	m.searchCandidates.AddInt(st.Candidates)
	m.searchTextScored.AddInt(st.TextScored)
	m.searchProbes.AddInt(st.Probes)
	if st.EarlyTerminated {
		m.searchEarlyTerm.Inc()
	}
}

// recordBatch accumulates one /batch run's totals (per-entry search
// work still goes through recordSearch).
func (m *serverMetrics) recordBatch(st core.BatchStats) {
	m.batch.RecordBatch(st.Queries, st.Failed)
}

// routeLabel maps a request onto a bounded route set so metric label
// cardinality stays fixed no matter what paths clients probe. Hand-rolled
// rather than http.Request.Pattern, which needs a newer Go than go.mod
// pins.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch p {
	case "/healthz", "/stats", "/metrics", "/search", "/batch", "/debug/slow":
		return p
	}
	switch {
	case strings.HasPrefix(p, "/trajectory/"):
		return "/trajectory/{id}"
	case strings.HasPrefix(p, "/debug/trace/"):
		return "/debug/trace/{id}"
	}
	return "other"
}

// statusWriter captures the response status for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer for http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument is the outermost middleware: request ID, optional tracer,
// latency/status metrics, in-flight gauge, and the access log line.
//
// Tracing runs in two modes that share one recorder. "X-Trace: 1"
// samples the request explicitly: its trace is retained for
// /debug/trace/{id} and its request ID rides the context as the trace
// ID, so a distributed backend stamps it on the wire and the shard
// servers retain their half under the same key. The slow-query flight
// recorder additionally traces every /search and /batch request when
// Config.SlowQueryThreshold is set — without propagating the trace ID,
// so the shard fleet is not asked to retain spans for unsampled
// traffic — and keeps the spans only when the request's wall clock
// reaches the threshold.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeRequestID(r.Header.Get(RequestIDHeader))
		if id == "" {
			id = newRequestID()
		}
		ctx := context.WithValue(r.Context(), requestIDKey{}, id)
		route := routeLabel(r)
		sampled := r.Header.Get(TraceHeader) == "1"
		slowEligible := s.slow != nil && (route == "/search" || route == "/batch")
		var rec *obs.TraceRecorder
		if sampled || slowEligible {
			rec = obs.NewTraceRecorder(0)
			ctx = obs.ContextWithTracer(ctx, rec)
			if sampled {
				ctx = obs.ContextWithTraceID(ctx, id)
			}
		}
		w.Header().Set(RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		s.metrics.inFlight.Inc()
		elapsed := obs.Stopwatch()
		next.ServeHTTP(sw, r.WithContext(ctx))
		d := elapsed()
		s.metrics.inFlight.Dec()
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: net/http sends 200
		}
		s.metrics.reqTotal.With(route, strconv.Itoa(status)).Inc()
		s.metrics.reqDur.With(route).Observe(d.Seconds())
		if rec != nil {
			if sampled {
				s.traces.Add(id, rec)
				s.traceMetrics.RecordTrace(len(rec.Events()), rec.Dropped())
			}
			if slowEligible && s.slow.Observe(obs.SlowQuery{
				ID: id, Route: route, Status: status,
				Events: rec.Events(), Dropped: rec.Dropped(),
			}, d) {
				s.traceMetrics.RecordSlow()
			}
		}
		if s.logger != nil {
			s.logger.Printf("%s %s %d %s rid=%s", r.Method, r.URL.Path, status,
				d.Round(time.Microsecond), id)
		}
	})
}

// hopJSON summarizes one remote partition hop of a cross-node trace:
// the slice of events bracketed by the distributed executor's
// remote_partition markers, with the hop's wall-clock attribution and
// the replicas that served it.
type hopJSON struct {
	Partition int      `json:"partition"`
	ElapsedMs float64  `json:"elapsedMs"`
	Events    int      `json:"events"`
	Dropped   int      `json:"dropped"`
	Replicas  []string `json:"replicas,omitempty"`
}

// remoteHops extracts the per-hop summary from a merged trace. Local
// (non-distributed) traces have no brackets and yield nil.
func remoteHops(events []obs.SpanEvent) []hopJSON {
	var hops []hopJSON
	open := -1 // index into hops of the bracket being scanned
	for _, ev := range events {
		switch ev.Kind {
		case shard.TracePartition:
			hops = append(hops, hopJSON{Partition: int(ev.Value), ElapsedMs: ev.Extra})
			open = len(hops) - 1
		case shard.TracePartitionDone:
			if open >= 0 {
				hops[open].Dropped = int(ev.Extra)
			}
			open = -1
		case rpc.TraceRemoteSpan:
			if open >= 0 && ev.Note != "" {
				hops[open].Replicas = append(hops[open].Replicas, ev.Note)
			}
		default:
			if open >= 0 {
				hops[open].Events++
			}
		}
	}
	return hops
}

// handleDebugTrace replays the recorded span events of a traced request
// (one sent with "X-Trace: 1"), keyed by its request ID. Distributed
// traces additionally carry a "hops" summary grouping the replayed
// remote spans per partition with their wall-clock attribution.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.traces.Get(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, codeNotFound,
			"no trace recorded for request id "+strconv.Quote(id))
		return
	}
	events := rec.Events()
	if events == nil {
		events = []obs.SpanEvent{}
	}
	resp := map[string]any{
		"id":      id,
		"events":  events,
		"dropped": rec.Dropped(),
	}
	if hops := remoteHops(events); hops != nil {
		resp["hops"] = hops
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDebugSlow serves the slow-query flight recorder: the retained
// traces of recent requests that reached Config.SlowQueryThreshold,
// oldest first. 404s when the recorder is disabled, so an operator
// probing a misconfigured fleet sees the reason, not an empty list.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	if s.slow == nil {
		writeError(w, r, http.StatusNotFound, codeNotFound,
			"slow-query recorder disabled; start the server with a slow-query threshold")
		return
	}
	queries := s.slow.Queries()
	if queries == nil {
		queries = []obs.SlowQuery{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"thresholdMs": float64(s.slow.Threshold()) / float64(time.Millisecond),
		"count":       len(queries),
		"queries":     queries,
	})
}

// Metrics exposes the server's registry so embedding programs
// (cmd/uotsserve's debug listener, tests) can scrape or snapshot it.
func (s *Server) Metrics() *obs.Registry { return s.registry }
