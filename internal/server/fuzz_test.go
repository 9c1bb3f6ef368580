package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"uots/internal/ingest"
)

// FuzzSearchHandler posts arbitrary bodies to /search and /batch. Every
// answer is a coded 4xx, a deadline 503, or a 200 whose expansion
// answers are the engine's own answer to the decoded request — never a
// 500, which is how recoverPanics reports a panic.
func FuzzSearchHandler(f *testing.F) {
	base, _ := testServer(f)
	s := NewWithConfig(base.engine, base.vocab, base.index, Config{Timeout: time.Second})
	h := s.Handler()
	for _, body := range []string{
		`{"vertexIds":[5,9],"keywords":"t0_kw0 t1_kw2","k":3}`,
		`{"points":[[1.0,1.0],[2,2]],"lambda":0.3,"k":4,"theta":0.4}`,
		`{"vertexIds":[3],"k":2,"window":"22:00-06:00"}`,
		`{"vertexIds":[3,40],"keywords":"t2_kw1","orderAware":true}`,
		`{"vertexIds":[7],"k":3,"diversifyMu":0.4}`,
		`{"vertexIds":[7],"k":3,"algorithm":"textfirst","lambda":0}`,
		`{"vertexIds":[7],"k":3,"algorithm":"exhaustive","window":"08:00-09:00"}`,
		`{"vertexIds":[7],"k":8589934592}`,
		`{"vertexIds":[7],"k":-1}`,
		`{"vertexIds":[7],"lambda":2,"window":"25:00-01:00"}`,
		`{"vertexIds":[7]} {}`,
	} {
		f.Add(false, []byte(body))
	}
	f.Add(true, []byte(`{"queries":[{"vertexIds":[5],"k":2},{"vertexIds":[9],"orderAware":true},{}],"workers":1073741824}`))
	f.Add(true, []byte(`{"queries":[{"vertexIds":[5,6],"keywords":"t0_kw1","k":3}],"shared":false}`))

	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/search"
		if batch {
			path = "/batch"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		var e errorJSON
		switch code := rec.Code; {
		case code == http.StatusOK:
			s.checkAnswers(t, path, body, rec.Body.Bytes())
		case json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Code == "":
			t.Fatalf("%s %q: status %d with an uncoded body %q", path, body, code, rec.Body)
		case code == http.StatusServiceUnavailable && e.Code == codeDeadline:
		case code < 400 || code >= 500:
			t.Fatalf("%s %q: status %d code %q, want a coded 4xx, a deadline 503 or a 200", path, body, code, e.Code)
		}
	})
}

// checkAnswers compares each answered entry of a 200 reply with the
// engine's own answer to the request the entry decodes to. Only the
// expansion search is compared: the baselines are held to the oracle by
// the differential harness (internal/shard), and which requests a route
// refuses is the handler's rule, checked here only for its status and
// error code.
func (s *Server) checkAnswers(t *testing.T, path string, body, reply []byte) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var reqs []SearchRequest
	var entries []BatchEntry
	if path == "/batch" {
		var req BatchRequest
		var resp BatchResponse
		_, _ = dec.Decode(&req), json.Unmarshal(reply, &resp)
		reqs, entries = req.Queries, resp.Responses
	} else {
		var req SearchRequest
		var resp SearchResponse
		_, _ = dec.Decode(&req), json.Unmarshal(reply, &resp)
		reqs, entries = []SearchRequest{req}, []BatchEntry{{Results: resp.Results}}
	}
	if len(entries) != len(reqs) {
		t.Fatalf("%s %q: %d answers to %d requests", path, body, len(entries), len(reqs))
	}
	for i, entry := range entries {
		if entry.Error != "" || !isExpansion(strings.ToLower(reqs[i].Algorithm)) {
			continue
		}
		sreq, err := s.buildRequest(reqs[i])
		if err != nil {
			t.Fatalf("%s %q: request %d answered, but it does not build: %v", path, body, i, err)
		}
		results, _, err := sreq.Run(context.Background(), s.engine)
		if err != nil {
			t.Fatalf("%s %q: request %d answered, but the engine fails it: %v", path, body, i, err)
		}
		want := make([]ResultJSON, len(results))
		for j, r := range results {
			want[j] = s.resultJSON(s.engine.Store(), r)
		}
		got, _ := json.Marshal(append([]ResultJSON{}, entry.Results...))
		if w, _ := json.Marshal(want); !bytes.Equal(got, w) {
			t.Fatalf("%s %q: request %d answered\n%s\nthe engine answers\n%s", path, body, i, got, w)
		}
	}
}

// FuzzIngestHandler posts arbitrary bodies to POST /trajectories on a
// live-ingest server whose WAL sits in a temp dir. Every answer is a
// coded 4xx, a deadline 503, or a 200 whose IDs are then queryable:
// GET /trajectory/{id} serves each with the samples it was sent — never
// a 500, which is how recoverPanics and a storage failure report.
func FuzzIngestHandler(f *testing.F) {
	s, _ := liveServer(f, ingest.Config{Fsync: ingest.FsyncNone}, Config{Timeout: 5 * time.Second})
	h := s.Handler()
	valid, err := json.Marshal(ingestBody(2, 3, 4))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, body := range []string{
		`{"trajectories":[{"samples":[{"vertex":10,"t":100},{"vertex":11,"t":110}],"keywords":"museum t0_kw0"}]}`,
		`{"trajectories":[{"samples":[{"vertex":0,"t":0}]}]}`,
		`{"trajectories":[]}`,
		`{"trajectories":[{"samples":[]}]}`,
		`{"trajectories":[{"samples":[{"vertex":64,"t":1}]}]}`,
		`{"trajectories":[{"samples":[{"vertex":-1,"t":1}]}]}`,
		`{"trajectories":[{"samples":[{"vertex":1,"t":200},{"vertex":2,"t":100}]}]}`,
		`{"trajectories":[{"samples":[{"vertex":1,"t":86400}]}]}`,
		`{"trajectories":[{"samples":[{"vertex":1,"t":-1}]}],"extra":1}`,
		`{"trajectories":[{"samples":[{"vertex":1,"t":1}],"keywords":"été café"}]} {}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/trajectories", bytes.NewReader(body)))
		var e errorJSON
		switch code := rec.Code; {
		case code == http.StatusOK:
			checkIngested(t, h, body, rec.Body.Bytes())
		case json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Code == "":
			t.Fatalf("%q: status %d with an uncoded body %q", body, code, rec.Body)
		case code == http.StatusServiceUnavailable && e.Code == codeDeadline:
		case code < 400 || code >= 500:
			t.Fatalf("%q: status %d code %q, want a coded 4xx, a deadline 503 or a 200", body, code, e.Code)
		}
	})
}

// checkIngested reads back every trajectory an ingest reply acknowledged
// and compares its samples with the ones the request sent.
func checkIngested(t *testing.T, h http.Handler, body, reply []byte) {
	t.Helper()
	var req IngestRequest
	var resp IngestResponse
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatalf("%q: answered 200, but it does not decode: %v", body, err)
	}
	if err := json.Unmarshal(reply, &resp); err != nil {
		t.Fatalf("%q: undecodable 200 reply %q: %v", body, reply, err)
	}
	if len(resp.IDs) != len(req.Trajectories) {
		t.Fatalf("%q: %d IDs for %d trajectories", body, len(resp.IDs), len(req.Trajectories))
	}
	for i, id := range resp.IDs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/trajectory/%d", id), nil))
		var got struct {
			Samples []struct {
				Vertex int32 `json:"vertex"`
			} `json:"samples"`
		}
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
			t.Fatalf("%q: acknowledged trajectory %d answers %d %q", body, id, rec.Code, rec.Body)
		}
		sent := req.Trajectories[i].Samples
		if len(got.Samples) != len(sent) {
			t.Fatalf("%q: trajectory %d holds %d samples, %d were sent", body, id, len(got.Samples), len(sent))
		}
		for j, smp := range sent {
			if got.Samples[j].Vertex != smp.Vertex {
				t.Fatalf("%q: trajectory %d sample %d is vertex %d, %d was sent", body, id, j, got.Samples[j].Vertex, smp.Vertex)
			}
		}
	}
}
