package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"uots/internal/core"
	"uots/internal/ingest"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

var (
	worldOnce sync.Once
	worldSrv  *Server
	worldDB   *trajdb.Store
)

func testServer(t testing.TB) (*Server, *trajdb.Store) {
	t.Helper()
	worldOnce.Do(func() {
		g := roadnet.BRNLike(0.1, 4)
		vocab := textual.GenerateVocab(4, 20, 1.0, 2)
		db, err := trajdb.Generate(g, trajdb.GenOptions{
			Count: 600, MeanSamples: 15, Vocab: vocab, Seed: 6,
		})
		if err != nil {
			panic(err)
		}
		engine, err := core.NewEngine(db, core.Options{})
		if err != nil {
			panic(err)
		}
		worldSrv = New(engine, vocab.Vocab, nil)
		worldDB = db
	})
	return worldSrv, worldDB
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	return doRaw(t, h, method, path, raw)
}

// doRaw sends body verbatim, for bodies json.Marshal cannot produce.
func doRaw(t *testing.T, h http.Handler, method, path string, body []byte) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var parsed map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
			t.Fatalf("%s %s returned unparseable body %q", method, path, rec.Body.String())
		}
	}
	return rec, parsed
}

// checkStrictBody posts valid (a JSON object path answers 200 to) with
// an undeclared field spliced in and with data after it: both used to be
// answered 200 as if the extra were not there, and are now 400s that
// say what was wrong.
func checkStrictBody(t *testing.T, h http.Handler, path, valid string) {
	t.Helper()
	if rec, body := doRaw(t, h, "POST", path, []byte(valid)); rec.Code != http.StatusOK {
		t.Fatalf("%s: valid body = %d %v", path, rec.Code, body)
	}
	for _, c := range []struct{ name, body, naming string }{
		{"unknown field", `{"order_aware":true,` + valid[1:], `"order_aware"`},
		{"trailing data", valid + " trailing", "after the JSON value"},
	} {
		rec, body := doRaw(t, h, "POST", path, []byte(c.body))
		msg, _ := body["error"].(string)
		if rec.Code != http.StatusBadRequest || body["code"] != codeBadRequest || !strings.Contains(msg, c.naming) {
			t.Errorf("%s with %s = %d %v, want 400 %q naming %s", path, c.name, rec.Code, body, codeBadRequest, c.naming)
		}
	}
}

func TestHealthAndStats(t *testing.T) {
	s, db := testServer(t)
	rec, body := doJSON(t, s.Handler(), "GET", "/healthz", nil)
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", rec.Code, body)
	}
	rec, body = doJSON(t, s.Handler(), "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	if int(body["trajectories"].(float64)) != db.NumTrajectories() {
		t.Errorf("stats trajectories = %v", body["trajectories"])
	}
	if body["vertices"].(float64) == 0 || body["vocabulary"].(float64) == 0 {
		t.Errorf("stats incomplete: %v", body)
	}
}

func TestSearchByVertexIDs(t *testing.T) {
	s, db := testServer(t)
	lambda := 0.5
	rec, body := doJSON(t, s.Handler(), "POST", "/search", SearchRequest{
		VertexIDs: []int32{5, 60},
		Keywords:  "t0_kw0 t0_kw1",
		Lambda:    &lambda,
		K:         3,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("search = %d: %v", rec.Code, body)
	}
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	first := results[0].(map[string]any)
	for _, key := range []string{"trajectory", "score", "spatial", "textual", "distsKm", "departs", "samples"} {
		if _, ok := first[key]; !ok {
			t.Errorf("result missing %q: %v", key, first)
		}
	}
	// Scores descend.
	prev := 2.0
	for _, r := range results {
		sc := r.(map[string]any)["score"].(float64)
		if sc > prev {
			t.Error("results not sorted by score")
		}
		prev = sc
	}
	// The response matches a direct engine call.
	engineRes, _, err := mustEngine(s).SearchCtx(context.Background(), core.Query{
		Locations: []roadnet.VertexID{5, 60},
		Keywords:  mustVocab(s).InternAll([]string{"t0_kw0", "t0_kw1"}),
		Lambda:    0.5, K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if int32(engineRes[0].Traj) != int32(first["trajectory"].(float64)) {
		t.Errorf("HTTP top result %v != engine top %d", first["trajectory"], engineRes[0].Traj)
	}
	_ = db
}

func mustEngine(s *Server) *core.Engine  { return s.engine }
func mustVocab(s *Server) *textual.Vocab { return s.vocab }

func TestSearchByPoints(t *testing.T) {
	s, _ := testServer(t)
	rec, body := doJSON(t, s.Handler(), "POST", "/search", SearchRequest{
		Points: [][2]float64{{1.0, 1.0}, {1.5, 1.2}},
		K:      2,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("search = %d: %v", rec.Code, body)
	}
	if len(body["results"].([]any)) != 2 {
		t.Fatalf("results = %v", body["results"])
	}
	stats := body["stats"].(map[string]any)
	if stats["visitedTrajectories"].(float64) <= 0 {
		t.Error("stats not populated")
	}
}

func TestSearchValidation(t *testing.T) {
	s, _ := testServer(t)
	cases := []struct {
		name   string
		req    any
		want   int
		naming []string // substrings the error message must carry
	}{
		{"no locations", SearchRequest{K: 3}, http.StatusBadRequest, nil},
		{"bad vertex", SearchRequest{VertexIDs: []int32{99999}}, http.StatusBadRequest, nil},
		{"bad lambda", SearchRequest{VertexIDs: []int32{1}, Lambda: ptr(3.0)}, http.StatusBadRequest, nil},
		{"bad algorithm", SearchRequest{VertexIDs: []int32{1}, Algorithm: "magic"}, http.StatusBadRequest, nil},
		{"bad window", SearchRequest{VertexIDs: []int32{1}, Window: "25:99"}, http.StatusBadRequest, nil},
		// Two modifiers used to answer 200 with the first one the handler
		// looked at; a modifier beside a baseline algorithm was dropped.
		{"order-aware + window", SearchRequest{VertexIDs: []int32{1}, OrderAware: true, Window: "07:00-11:00"},
			http.StatusBadRequest, []string{"window", "orderAware"}},
		{"theta + diversify", SearchRequest{VertexIDs: []int32{1}, Theta: ptr(0.5), DiversifyMu: ptr(0.5)},
			http.StatusBadRequest, []string{"theta", "diversify"}},
		{"exhaustive + theta", SearchRequest{VertexIDs: []int32{1}, Algorithm: "exhaustive", Theta: ptr(0.5)},
			http.StatusBadRequest, []string{"exhaustive", "theta"}},
		{"textfirst + window", SearchRequest{VertexIDs: []int32{1}, Algorithm: "textfirst", Window: "07:00-11:00"},
			http.StatusBadRequest, []string{"textfirst", "window"}},
	}
	for _, c := range cases {
		rec, body := doJSON(t, s.Handler(), "POST", "/search", c.req)
		if rec.Code != c.want {
			t.Errorf("%s: code %d, want %d (%v)", c.name, rec.Code, c.want, body)
		}
		msg, _ := body["error"].(string)
		if msg == "" || body["code"] != codeBadRequest {
			t.Errorf("%s: body %v, want an error message with code %q", c.name, body, codeBadRequest)
		}
		for _, field := range c.naming {
			if !strings.Contains(msg, field) {
				t.Errorf("%s: error %q does not name %q", c.name, msg, field)
			}
		}
	}
	// Malformed JSON body.
	if rec, _ := doRaw(t, s.Handler(), "POST", "/search", []byte("{nope")); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body = %d", rec.Code)
	}
	checkStrictBody(t, s.Handler(), "/search", `{"vertexIds":[1],"k":3}`)
}

func ptr(f float64) *float64 { return &f }

func TestSearchAlgorithmsAgree(t *testing.T) {
	s, _ := testServer(t)
	base := SearchRequest{VertexIDs: []int32{5, 60}, Keywords: "t0_kw0", K: 3}
	var scores [3][]float64
	for i, algo := range []string{"expansion", "exhaustive", "textfirst"} {
		req := base
		req.Algorithm = algo
		rec, body := doJSON(t, s.Handler(), "POST", "/search", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %v", algo, rec.Code, body)
		}
		for _, r := range body["results"].([]any) {
			scores[i] = append(scores[i], r.(map[string]any)["score"].(float64))
		}
	}
	for i := 1; i < 3; i++ {
		if fmt.Sprint(scores[i]) != fmt.Sprint(scores[0]) {
			t.Errorf("algorithm %d scores %v != expansion %v", i, scores[i], scores[0])
		}
	}
}

func TestSearchWindowed(t *testing.T) {
	s, db := testServer(t)
	rec, body := doJSON(t, s.Handler(), "POST", "/search", SearchRequest{
		VertexIDs: []int32{5, 60},
		Window:    "06:00-12:00",
		K:         3,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("windowed = %d: %v", rec.Code, body)
	}
	for _, r := range body["results"].([]any) {
		id := trajdb.TrajID(r.(map[string]any)["trajectory"].(float64))
		start := db.Traj(id).Start()
		if start < 6*3600 || start > 12*3600 {
			t.Errorf("result departs at %g outside window", start)
		}
	}
}

func TestSearchOrderAware(t *testing.T) {
	s, _ := testServer(t)
	rec, body := doJSON(t, s.Handler(), "POST", "/search", SearchRequest{
		VertexIDs:  []int32{5, 60},
		OrderAware: true,
		K:          2,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("order-aware = %d: %v", rec.Code, body)
	}
	if len(body["results"].([]any)) == 0 {
		t.Error("no order-aware results")
	}
}

func TestTrajectoryEndpoint(t *testing.T) {
	s, db := testServer(t)
	rec, body := doJSON(t, s.Handler(), "GET", "/trajectory/0", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("trajectory = %d", rec.Code)
	}
	if int(body["id"].(float64)) != 0 {
		t.Errorf("id = %v", body["id"])
	}
	if len(body["samples"].([]any)) != db.Traj(0).Len() {
		t.Errorf("samples = %d, want %d", len(body["samples"].([]any)), db.Traj(0).Len())
	}
	rec, _ = doJSON(t, s.Handler(), "GET", "/trajectory/999999", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing trajectory = %d", rec.Code)
	}
	rec, _ = doJSON(t, s.Handler(), "GET", "/trajectory/abc", nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad id = %d", rec.Code)
	}
}

func TestMethodRouting(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest("GET", "/search", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed && rec.Code != http.StatusNotFound {
		t.Errorf("GET /search = %d", rec.Code)
	}
}

func TestBatchEndpoint(t *testing.T) {
	s, _ := testServer(t)
	req := BatchRequest{
		Queries: []SearchRequest{
			{VertexIDs: []int32{5, 60}, Keywords: "t0_kw0", K: 2},
			{K: 2}, // invalid: no locations
			{Points: [][2]float64{{1.0, 1.0}}, K: 1},
		},
		Workers: 2,
	}
	rec, body := doJSON(t, s.Handler(), "POST", "/batch", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d: %v", rec.Code, body)
	}
	responses := body["responses"].([]any)
	if len(responses) != 3 {
		t.Fatalf("got %d responses", len(responses))
	}
	first := responses[0].(map[string]any)
	if len(first["results"].([]any)) != 2 {
		t.Errorf("first query results = %v", first["results"])
	}
	second := responses[1].(map[string]any)
	if second["error"] == nil || second["error"] == "" {
		t.Error("invalid query should carry an error")
	}
	third := responses[2].(map[string]any)
	if len(third["results"].([]any)) != 1 {
		t.Errorf("third query results = %v", third["results"])
	}
	if body["wallClockMs"].(float64) <= 0 {
		t.Error("wall clock missing")
	}

	// Batch results must match single-query results.
	singleRec, singleBody := doJSON(t, s.Handler(), "POST", "/search", req.Queries[0])
	if singleRec.Code != http.StatusOK {
		t.Fatal("single query failed")
	}
	singleTop := singleBody["results"].([]any)[0].(map[string]any)["trajectory"]
	batchTop := first["results"].([]any)[0].(map[string]any)["trajectory"]
	if singleTop != batchTop {
		t.Errorf("batch top %v != single top %v", batchTop, singleTop)
	}
}

// TestBatchSharedExpansionFlag pins the bridge left by the removed
// batch planner: "shared": true, "shared": false and no "shared" are
// all answered 200 with the same responses, and the reply carries none
// of the planner's fields. Every batch feeds the uots_batch_* totals.
func TestBatchSharedExpansionFlag(t *testing.T) {
	s, _ := testServer(t)
	queries := make([]SearchRequest, 4)
	for i := range queries {
		queries[i] = SearchRequest{VertexIDs: []int32{5, 60}, Keywords: "t0_kw0", K: 3}
	}
	on, off := true, false
	var want any
	for _, shared := range []*bool{nil, &on, &off} {
		rec, body := doJSON(t, s.Handler(), "POST", "/batch", BatchRequest{Queries: queries, Shared: shared})
		if rec.Code != http.StatusOK {
			t.Fatalf("shared=%v: batch = %d: %v", shared, rec.Code, body)
		}
		for _, key := range []string{"sharedExpansion", "distinctSources", "sourceRefs", "frontierSettles", "servedSettles"} {
			if _, ok := body[key]; ok {
				t.Errorf("shared=%v: reply carries the planner field %q", shared, key)
			}
		}
		for _, r := range body["responses"].([]any) {
			delete(r.(map[string]any)["stats"].(map[string]any), "elapsedMs")
		}
		if want == nil {
			want = body["responses"]
		} else if !reflect.DeepEqual(body["responses"], want) {
			t.Errorf("shared=%v: responses differ from the batch without \"shared\"", shared)
		}
	}

	mreq := httptest.NewRequest("GET", "/metrics", nil)
	recM := httptest.NewRecorder()
	s.Handler().ServeHTTP(recM, mreq)
	text := recM.Body.String()
	for _, name := range []string{"uots_batch_requests_total", "uots_batch_queries_total"} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	s, _ := testServer(t)
	rec, _ := doJSON(t, s.Handler(), "POST", "/batch", BatchRequest{})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch = %d", rec.Code)
	}
	big := BatchRequest{Queries: make([]SearchRequest, maxBatchQueries+1)}
	rec, _ = doJSON(t, s.Handler(), "POST", "/batch", big)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch = %d", rec.Code)
	}
	if rec, _ = doRaw(t, s.Handler(), "POST", "/batch", []byte("{bad")); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed batch body = %d", rec.Code)
	}
	checkStrictBody(t, s.Handler(), "/batch", `{"queries":[{"vertexIds":[1],"k":3}]}`)

	// Entries are plain top-k queries. One that carries a modifier or a
	// baseline algorithm used to be answered as if it did not; it now
	// fails alone, with its siblings served.
	mixed := BatchRequest{Queries: []SearchRequest{
		{VertexIDs: []int32{1}, K: 3},
		{VertexIDs: []int32{1}, K: 3, Window: "07:00-11:00"},
		{VertexIDs: []int32{1}, K: 3, OrderAware: true},
		{VertexIDs: []int32{1}, K: 3, Theta: ptr(0.5)},
		{VertexIDs: []int32{1}, K: 3, DiversifyMu: ptr(0.5)},
		{VertexIDs: []int32{1}, K: 3, Algorithm: "exhaustive"},
		{VertexIDs: []int32{1}, K: 3, Algorithm: "expansion"},
	}}
	rec, body := doJSON(t, s.Handler(), "POST", "/batch", mixed)
	if rec.Code != http.StatusOK {
		t.Fatalf("mixed batch = %d: %v", rec.Code, body)
	}
	for i, raw := range body["responses"].([]any) {
		entry := raw.(map[string]any)
		msg, _ := entry["error"].(string)
		if plain := i == 0 || i == len(mixed.Queries)-1; plain {
			if msg != "" || len(entry["results"].([]any)) == 0 {
				t.Errorf("plain entry %d: %v, want results", i, entry)
			}
		} else if !strings.Contains(msg, "/search") || entry["results"] != nil {
			t.Errorf("entry %d: %v, want a per-entry error pointing at /search", i, entry)
		}
	}
}

// TestSearchDoesNotGrowVocabulary: a query's keywords are looked up, not
// stored. InternAll on the read path let any client grow the server's
// vocabulary (and its memory) without bound, one unseen word at a time.
func TestSearchDoesNotGrowVocabulary(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	vocab := mustVocab(s)
	size := vocab.Size()

	for i := 0; i < 5; i++ {
		rec, body := doJSON(t, h, "POST", "/search", SearchRequest{
			VertexIDs: []int32{5}, Keywords: fmt.Sprintf("t0_kw0 ghost%d phantom%d", i, i), K: 3,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("search %d = %d: %v", i, rec.Code, body)
		}
	}
	rec, body := doJSON(t, h, "POST", "/batch", BatchRequest{Queries: []SearchRequest{
		{VertexIDs: []int32{5}, Keywords: "batchghost t0_kw1", K: 3},
		{VertexIDs: []int32{60}, Keywords: "batchphantom", K: 3},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d: %v", rec.Code, body)
	}
	if got := vocab.Size(); got != size {
		t.Errorf("vocabulary grew %d -> %d across reads", size, got)
	}
	if _, body = doJSON(t, h, "GET", "/stats", nil); int(body["vocabulary"].(float64)) != size {
		t.Errorf("/stats vocabulary = %v, want %d", body["vocabulary"], size)
	}

	// Unseen words still count in the union of SimT: the answer equals
	// the one the engine gives the same words interned into a private
	// copy of the vocabulary.
	private := textual.NewVocab()
	for id := 0; id < size; id++ {
		term, _ := vocab.Term(textual.TermID(id))
		private.Intern(term)
	}
	const words = "t0_kw0 ghost t0_kw1 phantom ghost"
	want, wantStats, err := mustEngine(s).SearchCtx(context.Background(), core.Query{
		Locations: []roadnet.VertexID{5, 60},
		Keywords:  private.InternAll(textual.Tokenize(words)),
		Lambda:    0.5, K: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, body = doJSON(t, h, "POST", "/search", SearchRequest{VertexIDs: []int32{5, 60}, Keywords: words, K: 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("mixed search = %d: %v", rec.Code, body)
	}
	got := body["results"].([]any)
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i, raw := range got {
		r := raw.(map[string]any)
		if int(r["trajectory"].(float64)) != int(want[i].Traj) ||
			r["textual"].(float64) != want[i].Textual || r["score"].(float64) != want[i].Score {
			t.Errorf("result %d = %v, want traj %d textual %v score %v",
				i, r, want[i].Traj, want[i].Textual, want[i].Score)
		}
	}
	stats := body["stats"].(map[string]any)
	if int(stats["visitedTrajectories"].(float64)) != wantStats.VisitedTrajectories ||
		int(stats["candidates"].(float64)) != wantStats.Candidates {
		t.Errorf("stats = %v, want visited %d candidates %d", stats, wantStats.VisitedTrajectories, wantStats.Candidates)
	}

	// Live ingest: a word a commit interns between two queries carrying
	// an unseen word must not become that word (the hazard of numbering
	// unseen words upward from Size()).
	live, _ := liveServer(t, ingest.Config{Fsync: ingest.FsyncNone}, Config{})
	h = live.Handler()
	ingestOne := func(vertex int32, keywords string) {
		t.Helper()
		rec, body := doJSON(t, h, "POST", "/trajectories", IngestRequest{Trajectories: []IngestTrajectory{{
			Samples: []IngestSample{{Vertex: vertex, T: 1}}, Keywords: keywords,
		}}})
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest %q = %d %v", keywords, rec.Code, body)
		}
	}
	textualByTraj := func() map[int]float64 {
		t.Helper()
		rec, body := doJSON(t, h, "POST", "/search", SearchRequest{VertexIDs: []int32{0}, Keywords: "museum ghost", K: 5})
		if rec.Code != http.StatusOK {
			t.Fatalf("live search = %d %v", rec.Code, body)
		}
		out := make(map[int]float64)
		for _, raw := range body["results"].([]any) {
			r := raw.(map[string]any)
			out[int(r["trajectory"].(float64))] = r["textual"].(float64)
		}
		return out
	}
	ingestOne(0, "museum park")
	if got := textualByTraj(); len(got) != 1 || got[0] != 1.0/3 {
		t.Fatalf("before the commit: textual by trajectory = %v, want {0: 1/3}", got)
	}
	ingestOne(1, "brandnew")
	if got := textualByTraj(); len(got) != 2 || got[0] != 1.0/3 || got[1] != 0 {
		t.Errorf("after the commit: textual by trajectory = %v, want {0: 1/3, 1: 0}", got)
	}
	if got := mustVocab(live).Size(); got != 3 {
		t.Errorf("live vocabulary = %d terms, want the 3 the ingests stored", got)
	}
}
