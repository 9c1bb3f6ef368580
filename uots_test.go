package uots_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"uots"
	"uots/internal/core"
	"uots/internal/difftest"
)

// TestPublicAPIEndToEnd drives the whole system through the facade only:
// generate a world, build an engine, query it, round-trip it through the
// binary formats, and query again.
func TestPublicAPIEndToEnd(t *testing.T) {
	g := uots.BRNLike(0.1, 42)
	if _, comps := g.ConnectedComponents(); g.NumVertices() == 0 || comps != 1 {
		t.Fatal("generated city is unusable")
	}
	vocab := uots.GenerateVocab(6, 30, 1.0, 7)
	db, err := uots.GenerateTrajectories(g, uots.TrajGenOptions{
		Count: 800, MeanSamples: 15, Vocab: vocab, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := uots.NewEngine(db, uots.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx := uots.NewVertexIndex(g, 0)
	a, _ := idx.Nearest(uots.Point{X: 1, Y: 1})
	c, _ := idx.Nearest(uots.Point{X: 1.5, Y: 1.2})
	q := uots.Query{
		Locations: []uots.VertexID{a, c},
		Keywords:  vocab.Vocab.InternAll([]string{"t0_kw0", "t0_kw1"}),
		Lambda:    0.5,
		K:         5,
	}
	res, stats, err := engine.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	if stats.VisitedTrajectories == 0 {
		t.Error("no work recorded")
	}
	// The expansion result must agree with the exhaustive baseline.
	ranking, k, err := difftest.Expect(context.Background(), engine, db, core.Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if err := difftest.Mismatch(res, ranking, k); err != nil {
		t.Fatal(err)
	}

	// Serialization round trip through the facade.
	var gbuf, tbuf bytes.Buffer
	if err := uots.WriteGraph(&gbuf, g); err != nil {
		t.Fatal(err)
	}
	if err := uots.WriteStore(&tbuf, db); err != nil {
		t.Fatal(err)
	}
	g2, err := uots.ReadGraph(&gbuf)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := uots.ReadStore(&tbuf, g2)
	if err != nil {
		t.Fatal(err)
	}
	engine2, err := uots.NewEngine(db2, uots.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, _, err := engine2.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// The same code over the same bytes: the answers are identical.
	if !reflect.DeepEqual(res, res2) {
		t.Fatalf("round-tripped engine answers %v, want %v", res2, res)
	}
}

// TestPublicAPIMapMatchPipeline drives the GPS ingestion path through the
// facade: noisy trace → matcher → store → search finds the trip.
func TestPublicAPIMapMatchPipeline(t *testing.T) {
	g := uots.NRNLike(0.06, 5)
	idx := uots.NewVertexIndex(g, 0)
	from, _ := idx.Nearest(uots.Point{X: 0.5, Y: 0.5})
	to, _ := idx.Nearest(uots.Point{X: 3.5, Y: 3.5})
	truth, _, ok := uots.ShortestPath(g, from, to)
	if !ok {
		t.Fatal("no path")
	}
	fixes := make([]uots.Point, len(truth))
	for i, v := range truth {
		fixes[i] = g.Point(v)
	}
	matcher := uots.NewMatcher(g, idx, uots.MatchOptions{})
	matched, err := matcher.Match(fixes)
	if err != nil {
		t.Fatal(err)
	}
	vocab := uots.NewVocab()
	builder := uots.NewStoreBuilder(g, vocab)
	samples := make([]uots.Sample, len(matched))
	for i, v := range matched {
		samples[i] = uots.Sample{V: v, T: 8*3600 + float64(i)*20}
	}
	id, err := builder.AddWithKeywords(samples, uots.Tokenize("morning commute, riverside"))
	if err != nil {
		t.Fatal(err)
	}
	db := builder.Freeze()
	engine, err := uots.NewEngine(db, uots.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := engine.SearchCtx(context.Background(), uots.Query{
		Locations: []uots.VertexID{from, to},
		Keywords:  vocab.InternAll([]string{"commute"}),
		Lambda:    0.7,
		K:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Traj != id {
		t.Fatalf("pipeline did not surface the imported trip: %+v", res)
	}
	if res[0].Spatial < 0.99 {
		t.Errorf("imported trip spatial score %g, want ≈ 1", res[0].Spatial)
	}
	if collapsed := uots.CollapseRepeats(matched); len(collapsed) > len(matched) {
		t.Error("CollapseRepeats grew the sequence")
	}
}

// TestPublicAPIWindowAndOrderExtensions exercises the two documented
// extensions through the facade.
func TestPublicAPIWindowAndOrderExtensions(t *testing.T) {
	g := uots.BRNLike(0.1, 9)
	vocab := uots.GenerateVocab(4, 20, 1.0, 3)
	db, err := uots.GenerateTrajectories(g, uots.TrajGenOptions{
		Count: 500, MeanSamples: 12, Vocab: vocab, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := uots.NewEngine(db, uots.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := uots.Query{Locations: []uots.VertexID{10, 40}, Lambda: 0.8, K: 3}
	win := uots.TimeWindow{From: 6 * 3600, To: 14 * 3600}
	res, _, err := engine.SearchWindowedCtx(context.Background(), q, win)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if start := db.Traj(r.Traj).Start(); !win.Contains(start) {
			t.Errorf("windowed result departs at %g", start)
		}
	}
	ores, _, err := engine.OrderAwareSearchCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ores) == 0 {
		t.Fatal("order-aware search returned nothing")
	}
	for _, r := range ores {
		plain, err := engine.Evaluate(q, r.Traj)
		if err != nil {
			t.Fatal(err)
		}
		if r.Spatial > plain.Spatial+1e-9 {
			t.Errorf("order-aware spatial %g exceeds unordered %g", r.Spatial, plain.Spatial)
		}
	}
}
