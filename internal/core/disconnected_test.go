package core

import (
	"context"
	"math"
	"testing"

	"uots/internal/geo"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// disconnectedWorld builds a two-island graph with trajectories on both
// islands — the regime where expanders exhaust their component, distances
// to the other island are +Inf, and the engine must fall back to textual
// competition for the unreachable trajectories.
func disconnectedWorld(t *testing.T) (*trajdb.Store, *textual.Vocab) {
	t.Helper()
	var b roadnet.Builder
	// Island A: vertices 0..3 in a line. Island B: vertices 4..7.
	for i := 0; i < 8; i++ {
		b.AddVertex(geo.Point{X: float64(i % 4), Y: float64(i / 4 * 10)})
	}
	for i := 0; i < 3; i++ {
		if err := b.AddEdge(roadnet.VertexID(i), roadnet.VertexID(i+1), 1); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(roadnet.VertexID(i+4), roadnet.VertexID(i+5), 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, comps := g.ConnectedComponents(); comps < 2 {
		t.Fatal("test graph should be disconnected")
	}
	vocab := textual.NewVocab()
	sb := trajdb.NewBuilder(g, vocab)
	mustAdd := func(samples []trajdb.Sample, kws []string) trajdb.TrajID {
		id, err := sb.AddWithKeywords(samples, kws)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mustAdd([]trajdb.Sample{{V: 0, T: 100}, {V: 1, T: 200}}, []string{"food", "market"}) // island A
	mustAdd([]trajdb.Sample{{V: 2, T: 300}, {V: 3, T: 400}}, []string{"art"})            // island A
	mustAdd([]trajdb.Sample{{V: 4, T: 500}, {V: 5, T: 600}}, []string{"food", "market"}) // island B, perfect text
	mustAdd([]trajdb.Sample{{V: 6, T: 700}}, []string{"river"})                          // island B
	return sb.Freeze(), vocab
}

func TestDisconnectedComponentsMatchExhaustive(t *testing.T) {
	db, vocab := disconnectedWorld(t)
	e, err := NewEngine(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{Locations: []roadnet.VertexID{0}, Keywords: vocab.InternAll([]string{"food", "market"}), Lambda: 0.5, K: 4},
		{Locations: []roadnet.VertexID{0, 5}, Keywords: vocab.InternAll([]string{"food"}), Lambda: 0.3, K: 4},
		{Locations: []roadnet.VertexID{7}, Lambda: 1, K: 4},
		{Locations: []roadnet.VertexID{1, 2}, Keywords: vocab.InternAll([]string{"art"}), Lambda: 0.8, K: 2},
	}
	for i, q := range queries {
		want, _, err := e.ExhaustiveSearchCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: exhaustive: %v", i, err)
		}
		got, _, err := e.SearchCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: expansion: %v", i, err)
		}
		sameScores(t, "disconnected", got, want)
	}
	// A trajectory on the other island from a single query location has
	// spatial similarity exactly 0 but still competes on text.
	res, _, err := e.SearchCtx(context.Background(), Query{
		Locations: []roadnet.VertexID{0},
		Keywords:  vocab.InternAll([]string{"food", "market"}),
		Lambda:    0.5,
		K:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var islandB *Result
	for i := range res {
		if res[i].Traj == 2 {
			islandB = &res[i]
		}
	}
	if islandB == nil {
		t.Fatal("island-B perfect-text trajectory missing from results")
	}
	if islandB.Spatial != 0 || islandB.Textual != 1 {
		t.Errorf("island-B decomposition = (%g, %g), want (0, 1)", islandB.Spatial, islandB.Textual)
	}
	if !math.IsInf(islandB.Dists[0], 1) {
		t.Errorf("island-B distance = %g, want +Inf", islandB.Dists[0])
	}
}

func TestMaxQueryLocationsBoundary(t *testing.T) {
	e, f := testEngineDefault(t)
	locs := make([]roadnet.VertexID, MaxQueryLocations)
	for i := range locs {
		locs[i] = roadnet.VertexID(i % f.g.NumVertices())
	}
	q := Query{Locations: locs, Lambda: 0.7, K: 2}
	want, _, err := e.ExhaustiveSearchCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("64-location exhaustive: %v", err)
	}
	got, _, err := e.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("64-location expansion: %v", err)
	}
	sameScores(t, "64 locations", got, want)
}
