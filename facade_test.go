package uots_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"uots"
)

// TestFacadeWrappers touches every thin facade constructor and helper so
// the public surface stays wired to the implementation packages.
func TestFacadeWrappers(t *testing.T) {
	g, err := uots.GenerateCity(uots.CityOptions{
		Rows: 8, Cols: 8, Style: uots.StyleDense, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 64 {
		t.Fatalf("city has %d vertices", g.NumVertices())
	}
	if got := uots.Tokenize("Market, Food!"); len(got) != 2 {
		t.Errorf("Tokenize = %v", got)
	}
	if got := uots.CollapseRepeats([]uots.VertexID{1, 1, 2}); len(got) != 2 {
		t.Errorf("CollapseRepeats = %v", got)
	}

	vocab := uots.GenerateVocab(2, 10, 1, 3)
	db, err := uots.GenerateTrajectories(g, uots.TrajGenOptions{
		Count: 50, MeanSamples: 8, Vocab: vocab, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// CSV round trip through the facade.
	var csvBuf bytes.Buffer
	if err := uots.ExportCSV(&csvBuf, db); err != nil {
		t.Fatal(err)
	}
	back, err := uots.ImportCSV(bytes.NewReader(csvBuf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTrajectories() != db.NumTrajectories() {
		t.Errorf("CSV round trip: %d vs %d", back.NumTrajectories(), db.NumTrajectories())
	}

	// GeoJSON export.
	var gjBuf bytes.Buffer
	if err := uots.ExportGeoJSON(&gjBuf, db, 0); err != nil {
		t.Fatal(err)
	}
	if gjBuf.Len() == 0 {
		t.Error("empty GeoJSON")
	}

	// Disk store through the facade, driving an engine.
	path := filepath.Join(t.TempDir(), "facade.dsk")
	if err := uots.CreateDiskStore(path, db); err != nil {
		t.Fatal(err)
	}
	disk, err := uots.OpenDiskStore(path, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	engine, err := uots.NewEngine(disk, uots.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := engine.SearchCtx(context.Background(), uots.Query{Locations: []uots.VertexID{3}, Lambda: 1, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("disk engine results = %d", len(res))
	}

	// ShortestPath helper.
	if _, d, ok := uots.ShortestPath(g, 0, 63); !ok || d <= 0 {
		t.Errorf("ShortestPath = (%g, %v)", d, ok)
	}

	// Matcher construction through the facade.
	m := uots.NewMatcher(g, uots.NewVertexIndex(g, 0), uots.MatchOptions{})
	if _, err := m.Match([]uots.Point{g.Point(0)}); err != nil {
		t.Errorf("Match: %v", err)
	}

	// Dynamic store, route reconstruction and diversified search.
	dyn := uots.NewDynamicStore(g, vocab.Vocab)
	h1, err := dyn.AddWithKeywords([]uots.Sample{{V: 0, T: 100}, {V: 1, T: 200}}, []string{"t0_kw0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dyn.AddWithKeywords([]uots.Sample{{V: 8, T: 300}}, []string{"t1_kw0"}); err != nil {
		t.Fatal(err)
	}
	snap, handles := dyn.Snapshot()
	if snap.NumTrajectories() != 2 || handles[0] != h1 {
		t.Fatalf("snapshot = %d trajectories, handles %v", snap.NumTrajectories(), handles)
	}
	dynEngine, err := uots.NewEngine(snap, uots.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res, _, err := dynEngine.SearchCtx(context.Background(), uots.Query{Locations: []uots.VertexID{0}, Lambda: 1, K: 1}); err != nil || len(res) != 1 {
		t.Fatalf("dynamic snapshot search = (%v, %v)", res, err)
	}
	route, dist, err := uots.ReconstructRoute(g, snap.Traj(0), uots.NewBidirectional(g))
	if err != nil || len(route) < 2 || dist <= 0 {
		t.Fatalf("ReconstructRoute = (%v, %g, %v)", route, dist, err)
	}
	full, err := uots.NewEngine(db, uots.Options{})
	if err != nil {
		t.Fatal(err)
	}
	div, _, err := full.DiversifiedSearchCtx(context.Background(), uots.Query{Locations: []uots.VertexID{3, 40}, Lambda: 0.8, K: 3},
		uots.DiversifyOptions{Mu: 0.5})
	if err != nil || len(div) == 0 {
		t.Fatalf("DiversifiedSearch = (%d results, %v)", len(div), err)
	}
}
