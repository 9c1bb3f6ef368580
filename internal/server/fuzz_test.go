package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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
