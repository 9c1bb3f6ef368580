package rpc

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"uots/internal/core"
)

// FuzzShardServer posts arbitrary bodies to the two decoding routes of a
// shard server. Every answer is either the coded 400 bad_query or a 200
// equal to what the engine returns for the decoded request — never a 500
// internal_error, which is how Handler's recover reports a panic.
func FuzzShardServer(f *testing.F) {
	fx := testServerFixture(f)
	s, err := NewShardServer(fx.engine, nil, 0, 1)
	if err != nil {
		f.Fatal(err)
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	q := fx.query(rand.New(rand.NewPCG(41, 0)), 5)
	theta := 0.35
	window := core.TimeWindow{From: 6 * 3600, To: 18 * 3600}
	div := core.DiversifyOptions{Mu: 0.4}
	for _, req := range []core.Request{
		{Query: q}, {Query: q, Theta: &theta}, {Query: q, Window: &window},
		{Query: q, OrderAware: true}, {Query: q, Diversify: &div},
	} {
		f.Add(false, encode(&SearchRequest{Request: req, Bound: 0.25, Trace: true}))
	}
	f.Add(true, encode(&BatchRequest{Queries: []core.Query{q, {K: 5}}, Opts: core.BatchOptions{Workers: 2}}))
	// One byte over the cap: a gob length prefix claiming the rest.
	over, n := make([]byte, maxRequestBytes+1), maxRequestBytes-3
	over[0], over[1], over[2], over[3] = 0xFD, byte(n>>16), byte(n>>8), byte(n)
	f.Add(false, over)

	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := PathSearch
		if batch {
			path = PathBatch
		}
		wantStatus, want := engineAnswer(fx.engine, batch, body)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))

		var got string
		var derr error
		dec := gob.NewDecoder(w.Body)
		switch {
		case w.Code != http.StatusOK:
			var we Error
			derr = dec.Decode(&we)
			got = we.Code
		case batch:
			var resp BatchResponse
			derr = dec.Decode(&resp)
			got = renderEntries(resp.Entries)
		default:
			var resp SearchResponse
			derr = dec.Decode(&resp)
			got = fmt.Sprint(resp.Results)
		}
		if derr != nil {
			t.Fatalf("%s: status %d with an undecodable body: %v", path, w.Code, derr)
		}
		if w.Code != http.StatusOK && (w.Code != http.StatusBadRequest || got != CodeBadQuery) {
			t.Fatalf("%s: status %d code %q, want 200 or 400 %s", path, w.Code, got, CodeBadQuery)
		}
		if w.Code != wantStatus || got != want {
			t.Fatalf("%s: server answered %d %s\nengine answers %d %s", path, w.Code, got, wantStatus, want)
		}
	})
}

// engineAnswer is what a shard server over e must answer to body,
// computed without the server: the status, and the error code or a
// rendering of the results.
func engineAnswer(e *core.Engine, batch bool, body []byte) (int, string) {
	ctx := context.Background()
	dec := gob.NewDecoder(bytes.NewReader(body))
	if batch {
		var req BatchRequest
		if err := dec.Decode(&req); err != nil {
			return http.StatusBadRequest, CodeBadQuery
		}
		out, _, err := e.SearchBatch(ctx, req.Queries, req.Opts)
		if err != nil && out == nil {
			return statusOf(errorToCode(err)), errorToCode(err)
		}
		entries := make([]BatchEntry, len(out))
		for i, br := range out {
			entries[i] = BatchEntry{Index: br.Index, Results: br.Results}
			if br.Err != nil {
				entries[i] = BatchEntry{Index: br.Index, ErrCode: errorToCode(br.Err)}
			}
		}
		return http.StatusOK, renderEntries(entries)
	}
	var req SearchRequest
	if err := dec.Decode(&req); err != nil {
		return http.StatusBadRequest, CodeBadQuery
	}
	if req.SharesBound() { // the server seeds its bound the same way
		bound := &core.SharedBound{}
		bound.Raise(req.Bound)
		ctx = core.ContextWithSharedBound(ctx, bound)
	}
	results, _, err := req.Run(ctx, e)
	if err != nil {
		return statusOf(errorToCode(err)), errorToCode(err)
	}
	return http.StatusOK, fmt.Sprint(results)
}

// renderEntries renders the outcome of every batch slot; stats are left
// out because they carry wall-clock time.
func renderEntries(entries []BatchEntry) string {
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%d %q %v\n", e.Index, e.ErrCode, e.Results)
	}
	return b.String()
}
