package rpc

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"uots/internal/core"
	"uots/internal/difftest"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// serverFixture is a small engine world for wire-protocol tests.
type serverFixture struct {
	g      *roadnet.Graph
	vocab  *textual.SyntheticVocab
	db     *trajdb.Store
	engine *core.Engine
}

var (
	serverFixtureOnce sync.Once
	serverFixtureVal  serverFixture
)

func testServerFixture(t testing.TB) serverFixture {
	t.Helper()
	serverFixtureOnce.Do(func() {
		g := roadnet.BRNLike(0.12, 7)
		vocab := textual.GenerateVocab(6, 40, 1.0, 11)
		db, err := trajdb.Generate(g, trajdb.GenOptions{Count: 80, MeanSamples: 15, Vocab: vocab, Seed: 17})
		if err != nil {
			panic("fixture: " + err.Error())
		}
		engine, err := core.NewEngine(db, core.Options{})
		if err != nil {
			panic("fixture: " + err.Error())
		}
		serverFixtureVal = serverFixture{g: g, vocab: vocab, db: db, engine: engine}
	})
	return serverFixtureVal
}

func (f serverFixture) query(rng *rand.Rand, k int) core.Query {
	locs := make([]roadnet.VertexID, 3)
	for i := range locs {
		locs[i] = roadnet.VertexID(rng.IntN(f.g.NumVertices()))
	}
	regions := trajdb.NewRegionTopics(f.g.Bounds(), f.vocab.NumTopics())
	topic := regions.TopicOf(f.g.Point(locs[0]))
	kws := f.vocab.DrawQueryTerms(topic, 3, 0.8, rng)
	return core.Query{Locations: locs, Keywords: kws, Lambda: 0.5, K: k}
}

func startShardServer(t *testing.T, engine *core.Engine, globals []trajdb.TrajID, idx, n int) *Client {
	t.Helper()
	s, err := NewShardServer(engine, globals, idx, n)
	if err != nil {
		t.Fatalf("NewShardServer: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return NewClient(hs.URL, nil)
}

// TestServerSearchRoundTrip: every variant's wire answer is exactly the
// engine's in-process answer — gob must round-trip float64 scores and
// distances bit-for-bit.
func TestServerSearchRoundTrip(t *testing.T) {
	f := testServerFixture(t)
	c := startShardServer(t, f.engine, nil, 0, 1)
	rng := rand.New(rand.NewPCG(19, 0))
	q := f.query(rng, 5)
	ctx := context.Background()
	theta := 0.35
	window := core.TimeWindow{From: 6 * 3600, To: 18 * 3600}
	div := core.DiversifyOptions{Mu: 0.4}

	cases := []struct {
		req  core.Request
		want func() ([]core.Result, core.SearchStats, error)
	}{
		{core.Request{Query: q},
			func() ([]core.Result, core.SearchStats, error) { return f.engine.SearchCtx(ctx, q) }},
		{core.Request{Query: q, Theta: &theta},
			func() ([]core.Result, core.SearchStats, error) { return f.engine.SearchThresholdCtx(ctx, q, theta) }},
		{core.Request{Query: q, Window: &window},
			func() ([]core.Result, core.SearchStats, error) { return f.engine.SearchWindowedCtx(ctx, q, window) }},
		{core.Request{Query: q, OrderAware: true},
			func() ([]core.Result, core.SearchStats, error) { return f.engine.OrderAwareSearchCtx(ctx, q) }},
		{core.Request{Query: q, Diversify: &div},
			func() ([]core.Result, core.SearchStats, error) { return f.engine.DiversifiedSearchCtx(ctx, q, div) }},
	}
	for _, tc := range cases {
		want, _, err := tc.want()
		if err != nil {
			t.Fatalf("%s: engine: %v", tc.req.Variant(), err)
		}
		resp, err := c.Search(ctx, SearchRequest{Request: tc.req})
		if err != nil {
			t.Fatalf("%s: wire: %v", tc.req.Variant(), err)
		}
		// nil and empty both mean "no results" (gob does not preserve
		// the distinction); normalise before the exact comparison.
		got := resp.Results
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wire results differ from engine results\n got: %+v\nwant: %+v", tc.req.Variant(), got, want)
		}
	}
}

// TestServerGlobalsRemap: results cross the wire in global IDs.
func TestServerGlobalsRemap(t *testing.T) {
	f := testServerFixture(t)
	n := f.db.NumTrajectories()
	globals := make([]trajdb.TrajID, n)
	const shift = 1000
	for i := range globals {
		globals[i] = trajdb.TrajID(i + shift)
	}
	c := startShardServer(t, f.engine, globals, 0, 1)
	rng := rand.New(rand.NewPCG(29, 0))
	q := f.query(rng, 5)

	want, _, err := f.engine.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	resp, err := c.Search(context.Background(), SearchRequest{Request: core.Request{Query: q}})
	if err != nil {
		t.Fatalf("wire: %v", err)
	}
	if len(resp.Results) != len(want) {
		t.Fatalf("wire answered %d results, want %d", len(resp.Results), len(want))
	}
	for i, r := range resp.Results {
		if r.Traj != want[i].Traj+shift {
			t.Errorf("rank %d: wire traj %d, want %d (local %d remapped)", i, r.Traj, want[i].Traj+shift, want[i].Traj)
		}
	}
}

func TestServerBadGlobals(t *testing.T) {
	f := testServerFixture(t)
	if _, err := NewShardServer(f.engine, []trajdb.TrajID{1, 2, 3}, 0, 1); !errors.Is(err, ErrBadGlobals) {
		t.Fatalf("NewShardServer with short globals: err = %v, want ErrBadGlobals", err)
	}
}

// TestServerErrorEnvelope: engine rejections cross the wire as coded
// envelopes and decode back into recognisable errors.
func TestServerErrorEnvelope(t *testing.T) {
	f := testServerFixture(t)
	c := startShardServer(t, f.engine, nil, 0, 1)
	ctx := context.Background()

	// A request the shard's own validation rejects (two modifiers) →
	// coded bad_query.
	_, err := c.Search(ctx, SearchRequest{Request: core.Request{OrderAware: true, Window: &core.TimeWindow{}}})
	var we *Error
	if !errors.As(err, &we) || we.Code != CodeBadQuery {
		t.Fatalf("conflicting modifiers: err = %v, want coded bad_query", err)
	}

	// Engine validation error (no locations) → coded bad_query, and not
	// a transport error (it must not trigger retries).
	_, err = c.Search(ctx, SearchRequest{Request: core.Request{Query: core.Query{K: 5}}})
	if !errors.As(err, &we) || we.Code != CodeBadQuery {
		t.Fatalf("invalid query: err = %v, want coded bad_query", err)
	}
	if IsTransient(err) {
		t.Fatalf("engine validation error classified transient: %v", err)
	}
}

// TestServerEmptyShard: a nil engine serves every request with zero
// results, mirroring how the in-process executor skips empty shards.
func TestServerEmptyShard(t *testing.T) {
	c := startShardServer(t, nil, nil, 1, 4)
	ctx := context.Background()
	resp, err := c.Search(ctx, SearchRequest{Request: core.Request{Query: core.Query{K: 5}}})
	if err != nil || len(resp.Results) != 0 {
		t.Fatalf("empty shard search: (%d results, %v), want (0, nil)", len(resp.Results), err)
	}
	h, err := c.Health(ctx)
	if err != nil || h.Shard != 1 || h.Shards != 4 || h.Trajs != 0 {
		t.Fatalf("empty shard health: (%+v, %v), want shard 1/4 with 0 trajs", h, err)
	}
}

func TestServerHealth(t *testing.T) {
	f := testServerFixture(t)
	c := startShardServer(t, f.engine, nil, 2, 3)
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "ok" || h.Shard != 2 || h.Shards != 3 || h.Trajs != f.db.NumTrajectories() {
		t.Fatalf("Health = %+v, want ok 2/3 with %d trajs", h, f.db.NumTrajectories())
	}
}

// TestServerBoundPiggyback: a same-K variant seeds its SharedBound from
// the request and reports its final threshold back; the hint changes
// pruning only, never the answer.
func TestServerBoundPiggyback(t *testing.T) {
	f := testServerFixture(t)
	c := startShardServer(t, f.engine, nil, 0, 1)
	rng := rand.New(rand.NewPCG(31, 0))
	q := f.query(rng, 5)
	ctx := context.Background()

	base, err := c.Search(ctx, SearchRequest{Request: core.Request{Query: q}})
	if err != nil {
		t.Fatalf("wire: %v", err)
	}
	if base.Bound <= 0 {
		t.Fatalf("no piggybacked bound on a full-K answer: %v", base.Bound)
	}
	hinted, err := c.Search(ctx, SearchRequest{Request: core.Request{Query: q}, Bound: base.Bound})
	if err != nil {
		t.Fatalf("wire (hinted): %v", err)
	}
	// A tight seed bound can resolve a winner's distances through a text
	// probe instead of the expansion; both are Dijkstras rooted at the
	// query location, so the answer must not move by a bit.
	if err := difftest.Mismatch(hinted.Results, base.Results, len(base.Results)); err != nil {
		t.Fatalf("bound hint changed the answer: %v", err)
	}
}

// TestServerCanceledContext: errors.Is works across the network for the
// canonical context sentinels.
func TestServerCanceledContext(t *testing.T) {
	f := testServerFixture(t)
	c := startShardServer(t, f.engine, nil, 0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Search(ctx, SearchRequest{Request: core.Request{Query: core.Query{K: 5}}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled search: err = %v, want context.Canceled", err)
	}
}

// TestServerBodyCap: the search handler refuses a body one byte over
// maxRequestBytes with the coded bad_query envelope instead of buffering
// it, while a body of exactly the limit is read in full (and then fails
// as ordinary undecodable gob).
func TestServerBodyCap(t *testing.T) {
	s, err := NewShardServer(testServerFixture(t).engine, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// One gob message whose length prefix (0xFD = three length bytes
	// follow) claims the whole rest of the body, so the decoder has to
	// read all of it before it can look at the contents.
	body := func(total int) []byte {
		b, n := make([]byte, total), total-4
		b[0], b[1], b[2], b[3] = 0xFD, byte(n>>16), byte(n>>8), byte(n)
		return b
	}
	for _, tc := range []struct {
		size     int
		tooLarge bool
	}{{maxRequestBytes, false}, {maxRequestBytes + 1, true}} {
		resp, err := http.Post(hs.URL+PathSearch, ContentType, bytes.NewReader(body(tc.size)))
		if err != nil {
			t.Fatalf("%d bytes: %v", tc.size, err)
		}
		var we Error
		derr := gob.NewDecoder(resp.Body).Decode(&we)
		resp.Body.Close()
		if derr != nil || resp.StatusCode != http.StatusBadRequest || we.Code != CodeBadQuery {
			t.Fatalf("%d bytes: status %d, envelope %+v (%v), want 400 coded bad_query",
				tc.size, resp.StatusCode, we, derr)
		}
		if got := strings.Contains(we.Msg, "request body too large"); got != tc.tooLarge {
			t.Errorf("%d bytes: message %q, want body-too-large = %v", tc.size, we.Msg, tc.tooLarge)
		}
	}
}
