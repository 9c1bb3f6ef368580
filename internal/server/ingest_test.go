package server

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"uots/internal/ingest"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// liveServer builds a server in live-ingest mode over an empty dynamic
// store, logging into a temp dir.
func liveServer(t testing.TB, icfg ingest.Config, cfg Config) (*Server, *ingest.Service) {
	t.Helper()
	g, err := roadnet.GenerateCity(roadnet.CityOptions{
		Rows: 8, Cols: 8, Style: roadnet.StyleDense, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	vocab := textual.NewVocab()
	store := trajdb.NewDynamic(g, vocab)
	if icfg.WALPath == "" {
		icfg.WALPath = filepath.Join(t.TempDir(), "ingest.wal")
	}
	svc, err := ingest.Open(store, icfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	cfg.Live = svc
	return NewWithConfig(nil, vocab, nil, cfg), svc
}

// ingestBody fabricates a valid n-trajectory request walking vertex ids
// from start with monotone times.
func ingestBody(n, start, samples int) IngestRequest {
	var req IngestRequest
	for i := 0; i < n; i++ {
		tr := IngestTrajectory{Keywords: fmt.Sprintf("museum park w%d", i)}
		for j := 0; j < samples; j++ {
			tr.Samples = append(tr.Samples, IngestSample{
				Vertex: int32(start + i + j), T: float64(100 + 10*j),
			})
		}
		req.Trajectories = append(req.Trajectories, tr)
	}
	return req
}

func TestIngestEndpointCommitAndRead(t *testing.T) {
	s, _ := liveServer(t, ingest.Config{Fsync: ingest.FsyncNone}, Config{})
	h := s.Handler()

	// Before the first commit the read path has nothing to serve.
	rec, body := doJSON(t, h, "POST", "/search", map[string]any{
		"vertexIds": []int32{1}, "k": 2, "lambda": 1,
	})
	if rec.Code != http.StatusServiceUnavailable || body["code"] != codeUnavailable {
		t.Fatalf("pre-ingest search = %d %v, want 503 %q", rec.Code, body, codeUnavailable)
	}

	rec, body = doJSON(t, h, "POST", "/trajectories", ingestBody(3, 0, 4))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d %v", rec.Code, body)
	}
	ids, ok := body["ids"].([]any)
	if !ok || len(ids) != 3 {
		t.Fatalf("ids = %v, want 3 entries", body["ids"])
	}
	gen, _ := body["generation"].(float64)
	if gen == 0 {
		t.Fatalf("generation = %v, want > 0", body["generation"])
	}

	// The committed batch is immediately queryable.
	rec, body = doJSON(t, h, "POST", "/search", map[string]any{
		"vertexIds": []int32{0}, "k": 3, "lambda": 1,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("post-ingest search = %d %v", rec.Code, body)
	}
	results, _ := body["results"].([]any)
	if len(results) == 0 {
		t.Fatal("post-ingest search returned no results")
	}

	// Trajectory fetch resolves against the same live snapshot and
	// carries the ingested keywords back out.
	id := int(ids[0].(float64))
	rec, body = doJSON(t, h, "GET", fmt.Sprintf("/trajectory/%d", id), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("trajectory fetch = %d %v", rec.Code, body)
	}
	kws, _ := body["keywords"].([]any)
	if len(kws) == 0 {
		t.Fatalf("trajectory %d has no keywords: %v", id, body)
	}

	// /stats reports live mode and the current generation.
	rec, body = doJSON(t, h, "GET", "/stats", nil)
	if rec.Code != http.StatusOK || body["liveIngest"] != true {
		t.Fatalf("stats = %d %v, want liveIngest=true", rec.Code, body)
	}
	if int(body["trajectories"].(float64)) != 3 {
		t.Fatalf("stats trajectories = %v, want 3", body["trajectories"])
	}

	// /ingest/stats mirrors the service counters.
	rec, body = doJSON(t, h, "GET", "/ingest/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest stats = %d", rec.Code)
	}
	if int(body["committed"].(float64)) != 3 || int(body["live"].(float64)) != 3 {
		t.Fatalf("ingest stats = %v, want committed=3 live=3", body)
	}
	if body["wal_bytes"].(float64) <= 0 {
		t.Fatalf("ingest stats wal_bytes = %v, want > 0", body["wal_bytes"])
	}
}

func TestIngestEndpointValidation(t *testing.T) {
	s, _ := liveServer(t, ingest.Config{Fsync: ingest.FsyncNone}, Config{})
	h := s.Handler()

	cases := []struct {
		name string
		body any
	}{
		{"empty batch", IngestRequest{}},
		{"no samples", IngestRequest{Trajectories: []IngestTrajectory{{Keywords: "park"}}}},
		{"vertex out of range", IngestRequest{Trajectories: []IngestTrajectory{{
			Samples: []IngestSample{{Vertex: 1 << 20, T: 1}},
		}}}},
		{"non-monotone time", IngestRequest{Trajectories: []IngestTrajectory{{
			Samples: []IngestSample{{Vertex: 0, T: 10}, {Vertex: 1, T: 5}},
		}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, body := doJSON(t, h, "POST", "/trajectories", tc.body)
			if rec.Code != http.StatusBadRequest || body["code"] != codeBadRequest {
				t.Fatalf("got %d %v, want 400 %q", rec.Code, body, codeBadRequest)
			}
		})
	}

	// Oversized batch is rejected before validation even looks at it.
	rec, body := doJSON(t, h, "POST", "/trajectories", ingestBody(maxIngestBatch+1, 0, 1))
	if rec.Code != http.StatusBadRequest || body["code"] != codeBadRequest {
		t.Fatalf("oversized batch = %d %v, want 400 %q", rec.Code, body, codeBadRequest)
	}

	checkStrictBody(t, h, "/trajectories", `{"trajectories":[{"samples":[{"vertex":0,"t":1}]}]}`)
}

func TestIngestEndpointBackpressure(t *testing.T) {
	// Wedge the committer inside its first WAL write so the bounded
	// queue fills, then verify the endpoint sheds with 429/overloaded.
	// MaxBatch 1 keeps the wedged group to one request: by default the
	// committer folds every queued request into its group, and the queue
	// would never fill.
	blocked := make(chan struct{})
	release := make(chan struct{})
	var once bool
	s, svc := liveServer(t, ingest.Config{
		Fsync:      ingest.FsyncNone,
		QueueDepth: 1,
		MaxBatch:   1,
		Hooks: ingest.Hooks{BeforeWrite: func() error {
			if !once {
				once = true
				close(blocked)
				<-release
			}
			return nil
		}},
	}, Config{})
	// Registered after liveServer's svc.Close, so it runs first: a failed
	// assertion must not leave Close waiting on the wedged committer.
	var releaseOnce sync.Once
	unwedge := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unwedge)
	h := s.Handler()

	type resp struct {
		code int
		body map[string]any
	}
	results := make(chan resp, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			rec, body := doJSON(t, h, "POST", "/trajectories", ingestBody(1, i, 2))
			results <- resp{rec.Code, body}
		}(i)
	}
	<-blocked // committer is wedged holding one request
	// Wait for the second in-flight request to occupy the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	rec, body := doJSON(t, h, "POST", "/trajectories", ingestBody(1, 9, 2))
	if rec.Code != http.StatusTooManyRequests || body["code"] != codeOverloaded {
		t.Fatalf("backlogged ingest = %d %v, want 429 %q", rec.Code, body, codeOverloaded)
	}

	unwedge()
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("released ingest = %d %v", r.code, r.body)
		}
	}
}

func TestIngestEndpointDraining(t *testing.T) {
	s, svc := liveServer(t, ingest.Config{Fsync: ingest.FsyncNone}, Config{})
	h := s.Handler()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	rec, body := doJSON(t, h, "POST", "/trajectories", ingestBody(1, 0, 2))
	if rec.Code != http.StatusServiceUnavailable || body["code"] != codeDraining {
		t.Fatalf("post-close ingest = %d %v, want 503 %q", rec.Code, body, codeDraining)
	}
}

// TestIngestEndpointMVCC exercises the per-request snapshot pin through
// HTTP: batch responses must reflect one generation even while writes
// land between the search and the (same-request) result rendering.
func TestIngestEndpointMVCC(t *testing.T) {
	s, _ := liveServer(t, ingest.Config{Fsync: ingest.FsyncNone}, Config{})
	h := s.Handler()

	rec, body := doJSON(t, h, "POST", "/trajectories", ingestBody(2, 0, 3))
	if rec.Code != http.StatusOK {
		t.Fatalf("seed ingest = %d %v", rec.Code, body)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			doJSON(t, h, "POST", "/trajectories", ingestBody(1, 10+i, 2))
		}
	}()
	for i := 0; i < 20; i++ {
		rec, body := doJSON(t, h, "POST", "/search", map[string]any{
			"vertexIds": []int32{0}, "k": 5, "lambda": 1,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("concurrent search = %d %v", rec.Code, body)
		}
	}
	<-done

	rec, body = doJSON(t, h, "GET", "/ingest/stats", nil)
	if rec.Code != http.StatusOK || int(body["live"].(float64)) != 22 {
		t.Fatalf("final ingest stats = %d %v, want live=22", rec.Code, body)
	}
}
