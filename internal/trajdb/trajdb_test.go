package trajdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"uots/internal/geo"
	"uots/internal/roadnet"
	"uots/internal/textual"
)

func testGraph(t *testing.T) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.GenerateCity(roadnet.CityOptions{
		Rows: 10, Cols: 10, Style: roadnet.StyleDense, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderValidation(t *testing.T) {
	g := testGraph(t)
	b := NewBuilder(g, nil)
	if _, err := b.Add(nil, nil); !errors.Is(err, ErrNoSamples) {
		t.Errorf("no samples: %v", err)
	}
	if _, err := b.Add([]Sample{{V: 9999, T: 0}}, nil); !errors.Is(err, ErrVertexRange) {
		t.Errorf("vertex range: %v", err)
	}
	if _, err := b.Add([]Sample{{V: 0, T: -1}}, nil); !errors.Is(err, ErrTimeRange) {
		t.Errorf("negative time: %v", err)
	}
	if _, err := b.Add([]Sample{{V: 0, T: SecondsPerDay}}, nil); !errors.Is(err, ErrTimeRange) {
		t.Errorf("time past midnight: %v", err)
	}
	if _, err := b.Add([]Sample{{V: 0, T: 100}, {V: 1, T: 50}}, nil); !errors.Is(err, ErrTimeOrder) {
		t.Errorf("time order: %v", err)
	}
	id, err := b.Add([]Sample{{V: 0, T: 100}, {V: 1, T: 150}}, nil)
	if err != nil || id != 0 {
		t.Fatalf("valid add = (%d, %v)", id, err)
	}
	if _, err := b.AddWithKeywords([]Sample{{V: 0, T: 0}}, []string{"x"}); err == nil {
		t.Error("AddWithKeywords without vocab should fail")
	}
	b.Freeze()
	if _, err := b.Add([]Sample{{V: 0, T: 0}}, nil); !errors.Is(err, ErrFrozenBuilder) {
		t.Errorf("add after freeze: %v", err)
	}
}

func TestStoreIndexes(t *testing.T) {
	g := testGraph(t)
	vocab := textual.NewVocab()
	b := NewBuilder(g, vocab)
	id0, err := b.AddWithKeywords([]Sample{{V: 3, T: 100}, {V: 4, T: 200}, {V: 3, T: 300}}, []string{"food", "market"})
	if err != nil {
		t.Fatal(err)
	}
	id1, err := b.AddWithKeywords([]Sample{{V: 4, T: 500}}, []string{"art"})
	if err != nil {
		t.Fatal(err)
	}
	db := b.Freeze()
	if db.NumTrajectories() != 2 || db.TotalSamples() != 4 {
		t.Fatalf("shape = %d trajs, %d samples", db.NumTrajectories(), db.TotalSamples())
	}
	if db.AvgSamples() != 2 {
		t.Errorf("AvgSamples = %g", db.AvgSamples())
	}
	// Vertex inverted index.
	if got := db.TrajsAtVertex(3); len(got) != 1 || got[0] != id0 {
		t.Errorf("TrajsAtVertex(3) = %v", got)
	}
	if got := db.TrajsAtVertex(4); len(got) != 2 {
		t.Errorf("TrajsAtVertex(4) = %v", got)
	}
	if got := db.TrajsAtVertex(7); len(got) != 0 {
		t.Errorf("TrajsAtVertex(7) = %v", got)
	}
	// Membership and unique vertices.
	if !db.ContainsVertex(id0, 3) || db.ContainsVertex(id1, 3) {
		t.Error("ContainsVertex wrong")
	}
	if got := db.UniqueVertices(id0); len(got) != 2 {
		t.Errorf("UniqueVertices = %v (duplicates should collapse)", got)
	}
	// Trajectory accessors.
	tr := db.Traj(id0)
	if tr.Len() != 3 || tr.Start() != 100 || tr.End() != 300 || tr.Duration() != 200 {
		t.Error("trajectory accessors wrong")
	}
	// Text index.
	food, _ := vocab.Lookup("food")
	if got := db.TextIndex().Postings(food); len(got) != 1 || got[0] != textual.DocID(id0) {
		t.Errorf("text postings = %v", got)
	}
	if len(db.Keywords(id0)) != 2 {
		t.Errorf("Keywords = %v", db.Keywords(id0))
	}
	// BBox covers the trajectory's vertices.
	box := db.BBox(id0)
	if !box.Contains(g.Point(3)) || !box.Contains(g.Point(4)) {
		t.Error("BBox does not contain trajectory vertices")
	}
	// Stats.
	st := db.Stats()
	if st.Trajectories != 2 || st.AvgKeywords != 1.5 || st.VertexesTouch != 2 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestGenerateCorpus(t *testing.T) {
	g := testGraph(t)
	vocab := textual.GenerateVocab(4, 20, 1, 3)
	db, err := Generate(g, GenOptions{Count: 300, MeanSamples: 20, Vocab: vocab, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if db.NumTrajectories() != 300 {
		t.Fatalf("count = %d", db.NumTrajectories())
	}
	if avg := db.AvgSamples(); avg < 10 || avg > 30 {
		t.Errorf("AvgSamples = %g, want ≈ 20", avg)
	}
	for id := 0; id < db.NumTrajectories(); id++ {
		tr := db.Traj(TrajID(id))
		prev := -1.0
		for i, s := range tr.Samples {
			if s.T < prev {
				t.Fatalf("traj %d sample %d time goes backwards", id, i)
			}
			if s.T < 0 || s.T >= SecondsPerDay {
				t.Fatalf("traj %d sample %d time %g out of day", id, i, s.T)
			}
			prev = s.T
			if i > 0 {
				// Consecutive samples must be network-adjacent in walk mode.
				if _, ok := g.EdgeWeight(tr.Samples[i-1].V, s.V); !ok && tr.Samples[i-1].V != s.V {
					t.Fatalf("traj %d samples %d-%d not adjacent", id, i-1, i)
				}
			}
		}
		if len(tr.Keywords) == 0 {
			t.Fatalf("traj %d has no keywords", id)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := testGraph(t)
	vocab := textual.GenerateVocab(4, 20, 1, 3)
	a, err := Generate(g, GenOptions{Count: 40, Vocab: vocab, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	vocab2 := textual.GenerateVocab(4, 20, 1, 3)
	b, err := Generate(g, GenOptions{Count: 40, Vocab: vocab2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 40; id++ {
		ta, tb := a.Traj(TrajID(id)), b.Traj(TrajID(id))
		if ta.Len() != tb.Len() {
			t.Fatalf("traj %d lengths differ", id)
		}
		for i := range ta.Samples {
			if ta.Samples[i] != tb.Samples[i] {
				t.Fatalf("traj %d sample %d differs", id, i)
			}
		}
	}
}

// TestGenerateGolden pins the bytes of a small seeded corpus. The gate's
// datasets, uotsdgen's output and the recorded experiments all assume
// Generate draws the same corpus from the same seed on every commit; a
// change that moves this hash changes every one of them.
func TestGenerateGolden(t *testing.T) {
	const want = "a2a79263f372351375d46d9bae2f73d10cb480d02c94af0a9f35cbe1fd3e41e9"
	g := testGraph(t)
	vocab := textual.GenerateVocab(4, 20, 1, 3)
	db, err := Generate(g, GenOptions{Count: 40, MeanSamples: 20, Vocab: vocab, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := WriteStore(h, db); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("WriteStore of the seeded corpus hashes to %s, want %s", got, want)
	}
}

func TestGenerateRejectsNegativeCount(t *testing.T) {
	g := testGraph(t)
	if _, err := Generate(g, GenOptions{Count: -1}); err == nil {
		t.Error("negative count should error")
	}
}

func TestStoreIORoundTrip(t *testing.T) {
	g := testGraph(t)
	vocab := textual.GenerateVocab(3, 10, 1, 8)
	db, err := Generate(g, GenOptions{Count: 60, MeanSamples: 12, Vocab: vocab, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteStore(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStore(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTrajectories() != db.NumTrajectories() {
		t.Fatalf("count %d vs %d", got.NumTrajectories(), db.NumTrajectories())
	}
	if got.Vocab().Size() != db.Vocab().Size() {
		t.Fatalf("vocab %d vs %d", got.Vocab().Size(), db.Vocab().Size())
	}
	for id := 0; id < db.NumTrajectories(); id++ {
		a, b := db.Traj(TrajID(id)), got.Traj(TrajID(id))
		if a.Len() != b.Len() {
			t.Fatalf("traj %d length", id)
		}
		for i := range a.Samples {
			if a.Samples[i].V != b.Samples[i].V || a.Samples[i].T != b.Samples[i].T {
				t.Fatalf("traj %d sample %d", id, i)
			}
		}
		if len(a.Keywords) != len(b.Keywords) {
			t.Fatalf("traj %d keywords", id)
		}
		for i := range a.Keywords {
			at, _ := db.Vocab().Term(a.Keywords[i])
			bt, _ := got.Vocab().Term(b.Keywords[i])
			if at != bt {
				t.Fatalf("traj %d keyword %d: %q vs %q", id, i, at, bt)
			}
		}
	}
}

func TestReadStoreRejectsGarbage(t *testing.T) {
	g := testGraph(t)
	if _, err := ReadStore(bytes.NewReader([]byte("nope")), g); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := ReadStore(bytes.NewReader([]byte(storeMagic)), g); err == nil {
		t.Error("truncated store should fail")
	}
}

func TestRegionTopics(t *testing.T) {
	bounds := geo.RectOf(geo.Point{X: 0, Y: 0}, geo.Point{X: 10, Y: 10})
	r := NewRegionTopics(bounds, 4)
	// Deterministic and in range.
	rng := rand.New(rand.NewPCG(2, 3))
	for i := 0; i < 200; i++ {
		p := geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		topic := r.TopicOf(p)
		if topic < 0 || topic >= 4 {
			t.Fatalf("topic %d out of range", topic)
		}
		if topic != r.TopicOf(p) {
			t.Fatal("TopicOf not deterministic")
		}
	}
	// Corners of a 2×2 partition land in different regions.
	tl := r.TopicOf(geo.Point{X: 1, Y: 9})
	br := r.TopicOf(geo.Point{X: 9, Y: 1})
	if tl == br {
		t.Error("opposite corners share a topic in a 2x2 partition")
	}
	// Points outside bounds clamp instead of panicking.
	if got := r.TopicOf(geo.Point{X: -5, Y: 50}); got < 0 || got >= 4 {
		t.Errorf("out-of-bounds topic %d", got)
	}
	// Single topic is always 0.
	one := NewRegionTopics(bounds, 1)
	if one.TopicOf(geo.Point{X: 3, Y: 3}) != 0 {
		t.Error("single-topic map should return 0")
	}
}

func TestTimestampMonotone(t *testing.T) {
	g := testGraph(t)
	rng := rand.New(rand.NewPCG(6, 7))
	path := biasedWalk(g, 0, 500, rng) // long walk: clamping must not break order
	samples := timestampPath(g, path, GenOptions{MinSpeedKmh: 1, MaxSpeedKmh: 2}, rng)
	prev := math.Inf(-1)
	for i, s := range samples {
		if s.T < prev {
			t.Fatalf("sample %d time %g < %g", i, s.T, prev)
		}
		if s.T >= SecondsPerDay {
			t.Fatalf("sample %d time %g ≥ day end", i, s.T)
		}
		prev = s.T
	}
}

// gappedCorpus generates a walk corpus and keeps every third sample of
// each trip, so consecutive samples are mostly not adjacent: the input
// route reconstruction and densification exist for.
func gappedCorpus(t *testing.T, g *roadnet.Graph, opts GenOptions) *Store {
	t.Helper()
	walks, err := Generate(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(g, walks.Vocab())
	gaps := 0
	for id := 0; id < walks.NumTrajectories(); id++ {
		tr := walks.Traj(TrajID(id))
		var kept []Sample
		for i := 0; i < tr.Len(); i += 3 {
			if n := len(kept); n > 0 {
				if _, adjacent := g.EdgeWeight(kept[n-1].V, tr.Samples[i].V); !adjacent {
					gaps++
				}
			}
			kept = append(kept, tr.Samples[i])
		}
		if _, err := b.Add(kept, tr.Keywords); err != nil {
			t.Fatal(err)
		}
	}
	if gaps == 0 {
		t.Fatal("gapped corpus has no gap between consecutive samples")
	}
	return b.Freeze()
}

func TestReconstructRoute(t *testing.T) {
	g := testGraph(t)
	db := gappedCorpus(t, g, GenOptions{Count: 20, MeanSamples: 30, Seed: 31})
	bidir := roadnet.NewBidirectional(g)
	for id := 0; id < db.NumTrajectories(); id++ {
		tr := db.Traj(TrajID(id))
		route, dist, err := ReconstructRoute(g, tr, bidir)
		if err != nil {
			t.Fatalf("traj %d: %v", id, err)
		}
		if route[0] != tr.Samples[0].V {
			t.Fatalf("traj %d route starts at %d", id, route[0])
		}
		// Every consecutive route pair is a network edge.
		for i := 1; i < len(route); i++ {
			if _, ok := g.EdgeWeight(route[i-1], route[i]); !ok {
				t.Fatalf("traj %d route uses nonexistent edge {%d,%d}", id, route[i-1], route[i])
			}
		}
		// All samples appear in order along the route.
		j := 0
		for _, v := range route {
			if j < tr.Len() && tr.Samples[j].V == v {
				j++
				// Skip consecutive duplicate samples (already satisfied).
				for j < tr.Len() && tr.Samples[j].V == tr.Samples[j-1].V {
					j++
				}
			}
		}
		if j != tr.Len() {
			t.Fatalf("traj %d: only %d of %d samples on route", id, j, tr.Len())
		}
		if dist < 0 {
			t.Fatalf("traj %d negative route length", id)
		}
	}
	// Nil workspace allocates internally.
	if _, _, err := ReconstructRoute(g, db.Traj(0), nil); err != nil {
		t.Fatal(err)
	}
	// Single-sample trajectory.
	b := NewBuilder(g, nil)
	if _, err := b.Add([]Sample{{V: 2, T: 0}}, nil); err != nil {
		t.Fatal(err)
	}
	solo := b.Freeze()
	route, dist, err := ReconstructRoute(g, solo.Traj(0), bidir)
	if err != nil || len(route) != 1 || dist != 0 {
		t.Fatalf("solo route = (%v, %g, %v)", route, dist, err)
	}
}

func TestDensify(t *testing.T) {
	g := testGraph(t)
	vocab := textual.GenerateVocab(2, 8, 1, 9)
	db := gappedCorpus(t, g, GenOptions{Count: 30, MeanSamples: 24, Vocab: vocab, Seed: 41})
	dense, err := Densify(db)
	if err != nil {
		t.Fatal(err)
	}
	if dense.NumTrajectories() != db.NumTrajectories() {
		t.Fatalf("count changed: %d vs %d", dense.NumTrajectories(), db.NumTrajectories())
	}
	if dense.TotalSamples() < db.TotalSamples() {
		t.Errorf("densify shrank samples: %d vs %d", dense.TotalSamples(), db.TotalSamples())
	}
	for id := 0; id < db.NumTrajectories(); id++ {
		orig, dt := db.Traj(TrajID(id)), dense.Traj(TrajID(id))
		// Endpoints and keywords preserved.
		if dt.Samples[0] != orig.Samples[0] {
			t.Fatalf("traj %d start changed", id)
		}
		if dt.Samples[dt.Len()-1].V != orig.Samples[orig.Len()-1].V {
			t.Fatalf("traj %d end changed", id)
		}
		if len(dt.Keywords) != len(orig.Keywords) {
			t.Fatalf("traj %d keywords changed", id)
		}
		// Dense samples are network-adjacent and time-monotone.
		prev := -1.0
		for i, s := range dt.Samples {
			if s.T < prev-1e-9 {
				t.Fatalf("traj %d sample %d time goes backwards", id, i)
			}
			prev = s.T
			if i > 0 && dt.Samples[i-1].V != s.V {
				if _, ok := g.EdgeWeight(dt.Samples[i-1].V, s.V); !ok {
					t.Fatalf("traj %d dense samples %d-%d not adjacent", id, i-1, i)
				}
			}
		}
		// Every original sample still appears, in order.
		j := 0
		for _, s := range dt.Samples {
			if j < orig.Len() && s.V == orig.Samples[j].V {
				j++
			}
		}
		if j != orig.Len() {
			t.Fatalf("traj %d lost original samples (%d of %d found)", id, j, orig.Len())
		}
	}
}
