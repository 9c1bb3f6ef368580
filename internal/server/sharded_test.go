package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"uots/internal/core"
	"uots/internal/obs"
	"uots/internal/roadnet"
	"uots/internal/shard"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// Both sharded executors must satisfy the serving seam.
var (
	_ SearchBackend = (*shard.Executor)(nil)
	_ SearchBackend = (*shard.RemoteExecutor)(nil)
)

var (
	shardWorldOnce sync.Once
	shardWorldSrv  *Server
	shardWorldEng  *core.Engine
)

// shardedServer builds one server whose default /search path runs on a
// 4-shard executor, sharing one metrics registry between the sharded
// backend and the HTTP layer — the exact wiring cmd/uotsserve -shards
// produces.
func shardedServer(t *testing.T) (*Server, *core.Engine) {
	t.Helper()
	shardWorldOnce.Do(func() {
		g := roadnet.BRNLike(0.1, 4)
		vocab := textual.GenerateVocab(4, 20, 1.0, 2)
		db, err := trajdb.Generate(g, trajdb.GenOptions{
			Count: 400, MeanSamples: 15, Vocab: vocab, Seed: 6,
		})
		if err != nil {
			panic(err)
		}
		engine, err := core.NewEngine(db, core.Options{})
		if err != nil {
			panic(err)
		}
		reg := obs.NewRegistry()
		sharded, err := shard.NewExecutor(db, core.Options{}, shard.Config{
			Shards: 4, Metrics: reg,
		})
		if err != nil {
			panic(err)
		}
		shardWorldSrv = NewWithConfig(engine, vocab.Vocab, nil, Config{
			Metrics:  reg,
			Searcher: sharded,
		})
		shardWorldEng = engine
	})
	return shardWorldSrv, shardWorldEng
}

// TestShardedBackendSmoke is the CI smoke: a /search query served by the
// sharded backend answers exactly like the monolithic engine, and
// /metrics exposes the uots_shard_* series.
func TestShardedBackendSmoke(t *testing.T) {
	s, mono := shardedServer(t)

	req := SearchRequest{VertexIDs: []int32{3, 17, 29}, Keywords: "t0_kw0 t1_kw1", K: 5}
	rec, body := doJSON(t, s.Handler(), "POST", "/search", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("sharded /search = %d: %v", rec.Code, body)
	}
	results := body["results"].([]any)
	if len(results) == 0 {
		t.Fatal("sharded /search returned no results")
	}

	// The sharded answer must match the monolithic engine's ranking.
	sreq, err := s.buildRequest(req)
	if err != nil {
		t.Fatalf("buildRequest: %v", err)
	}
	want, _, err := mono.SearchCtx(context.Background(), sreq.Query)
	if err != nil {
		t.Fatalf("monolithic SearchCtx: %v", err)
	}
	if len(results) != len(want) {
		t.Fatalf("sharded /search returned %d results, monolithic %d", len(results), len(want))
	}
	for i, raw := range results {
		got := int32(raw.(map[string]any)["trajectory"].(float64))
		if got != int32(want[i].Traj) {
			t.Errorf("rank %d: sharded trajectory %d, monolithic %d", i, got, want[i].Traj)
		}
	}

	// The windowed and order-aware variants route through the backend too.
	winReq := req
	winReq.Window = "06:00-18:00"
	if rec, body := doJSON(t, s.Handler(), "POST", "/search", winReq); rec.Code != http.StatusOK {
		t.Fatalf("sharded windowed /search = %d: %v", rec.Code, body)
	}
	oaReq := req
	oaReq.OrderAware = true
	if rec, body := doJSON(t, s.Handler(), "POST", "/search", oaReq); rec.Code != http.StatusOK {
		t.Fatalf("sharded order-aware /search = %d: %v", rec.Code, body)
	}

	// /metrics carries both the HTTP layer's and the shard layer's series
	// from the one shared registry. (Raw GET: the body is Prometheus
	// text, not JSON.)
	mreq := httptest.NewRequest("GET", "/metrics", nil)
	recM := httptest.NewRecorder()
	s.Handler().ServeHTTP(recM, mreq)
	if recM.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", recM.Code)
	}
	text := recM.Body.String()
	for _, name := range []string{
		"uots_shard_queries_total",
		"uots_shard_searches_total",
		"uots_http_requests_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// TestShardedBatchEndpoint drives /batch through the sharded backend:
// mixed valid/invalid entries answer per slot and every valid entry
// matches the monolithic engine.
func TestShardedBatchEndpoint(t *testing.T) {
	s, mono := shardedServer(t)

	req := BatchRequest{
		Queries: []SearchRequest{
			{VertexIDs: []int32{3, 17}, Keywords: "t0_kw0", K: 4},
			{K: 2}, // invalid: no locations
			{VertexIDs: []int32{3, 29}, Keywords: "t1_kw1", K: 4},
			{VertexIDs: []int32{3, 17}, Keywords: "t2_kw2", K: 4},
		},
	}
	rec, body := doJSON(t, s.Handler(), "POST", "/batch", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("sharded /batch = %d: %v", rec.Code, body)
	}
	if body["sharedExpansion"] != true {
		t.Error("sharded batch did not report sharedExpansion")
	}
	responses := body["responses"].([]any)
	if len(responses) != 4 {
		t.Fatalf("got %d responses, want 4", len(responses))
	}
	if e := responses[1].(map[string]any)["error"]; e == nil || e == "" {
		t.Error("invalid entry missing its error")
	}
	for _, qi := range []int{0, 2, 3} {
		sreq, err := s.buildRequest(req.Queries[qi])
		if err != nil {
			t.Fatalf("buildRequest %d: %v", qi, err)
		}
		want, _, err := mono.SearchCtx(context.Background(), sreq.Query)
		if err != nil {
			t.Fatalf("monolithic query %d: %v", qi, err)
		}
		results := responses[qi].(map[string]any)["results"].([]any)
		if len(results) != len(want) {
			t.Fatalf("entry %d: %d results, monolithic %d", qi, len(results), len(want))
		}
		for i, raw := range results {
			got := int32(raw.(map[string]any)["trajectory"].(float64))
			if got != int32(want[i].Traj) {
				t.Errorf("entry %d rank %d: sharded %d, monolithic %d", qi, i, got, want[i].Traj)
			}
		}
	}
}
