package roadnet

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"uots/internal/geo"
)

// line builds the path graph 0-1-2-...-(n-1) with unit weights.
func line(t *testing.T, n int) *Graph {
	t.Helper()
	var b Builder
	for i := 0; i < n; i++ {
		b.AddVertex(geo.Point{X: float64(i), Y: 0})
	}
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(VertexID(i), VertexID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomConnected builds a connected random graph: a random spanning tree
// plus extra random edges, with weights ≥ Euclidean length.
func randomConnected(n, extra int, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	var b Builder
	for i := 0; i < n; i++ {
		b.AddVertex(geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10})
	}
	for i := 1; i < n; i++ {
		j := VertexID(rng.IntN(i))
		w := b.pts[i].Dist(b.pts[j]) * (1 + rng.Float64())
		if w == 0 {
			w = 0.001
		}
		if err := b.AddEdge(VertexID(i), j, w); err != nil {
			panic(err)
		}
	}
	for e := 0; e < extra; e++ {
		u, v := VertexID(rng.IntN(n)), VertexID(rng.IntN(n))
		if u == v || b.HasEdge(u, v) {
			continue
		}
		w := b.pts[u].Dist(b.pts[v]) * (1 + rng.Float64())
		if w == 0 {
			w = 0.001
		}
		if err := b.AddEdge(u, v, w); err != nil {
			panic(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// twoComponents builds two random connected halves with no edge between
// them. The second half's weights are 0.3 × those randomConnected draws,
// below the Euclidean length.
func twoComponents(seed uint64) *Graph {
	var b Builder
	for half, g := range []*Graph{randomConnected(20, 15, seed), randomConnected(20, 15, seed+1)} {
		base := VertexID(b.NumVertices())
		scale := 1.0
		if half == 1 {
			scale = 0.3
		}
		for v := 0; v < g.NumVertices(); v++ {
			b.AddVertex(g.Point(VertexID(v)))
		}
		for v := 0; v < g.NumVertices(); v++ {
			to, w := g.Neighbors(VertexID(v))
			for i, u := range to {
				if int(u) > v {
					if err := b.AddEdge(base+VertexID(v), base+VertexID(u), w[i]*scale); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestBuilderValidation(t *testing.T) {
	var b Builder
	a := b.AddVertex(geo.Point{})
	c := b.AddVertex(geo.Point{X: 1})
	if err := b.AddEdge(a, a, 1); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop: %v", err)
	}
	if err := b.AddEdge(a, 5, 1); !errors.Is(err, ErrBadVertex) {
		t.Errorf("bad vertex: %v", err)
	}
	if err := b.AddEdge(a, c, 0); !errors.Is(err, ErrBadWeight) {
		t.Errorf("zero weight: %v", err)
	}
	if err := b.AddEdge(a, c, -2); !errors.Is(err, ErrBadWeight) {
		t.Errorf("negative weight: %v", err)
	}
	if err := b.AddEdge(a, c, 1); err != nil {
		t.Fatalf("valid edge: %v", err)
	}
	if err := b.AddEdge(c, a, 2); !errors.Is(err, ErrDuplicateEdge) {
		t.Errorf("duplicate edge (reversed): %v", err)
	}
	var empty Builder
	if _, err := empty.Build(); !errors.Is(err, ErrEmptyGraph) {
		t.Errorf("empty build: %v", err)
	}
}

func TestGraphAccessors(t *testing.T) {
	g := line(t, 4)
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("shape = %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if w, ok := g.EdgeWeight(1, 2); !ok || w != 1 {
		t.Errorf("EdgeWeight(1,2) = (%g, %v)", w, ok)
	}
	if _, ok := g.EdgeWeight(0, 3); ok {
		t.Error("EdgeWeight(0,3) should not exist")
	}
	to, w := g.Neighbors(1)
	if len(to) != 2 || len(w) != 2 {
		t.Fatalf("Neighbors(1) sizes %d, %d", len(to), len(w))
	}
	if g.TotalEdgeLength() != 3 {
		t.Errorf("TotalEdgeLength = %g", g.TotalEdgeLength())
	}
	b := g.Bounds()
	if b.Min != (geo.Point{X: 0, Y: 0}) || b.Max != (geo.Point{X: 3, Y: 0}) {
		t.Errorf("Bounds = %v..%v", b.Min, b.Max)
	}
}

func TestConnectedComponents(t *testing.T) {
	var b Builder
	for i := 0; i < 6; i++ {
		b.AddVertex(geo.Point{X: float64(i)})
	}
	mustEdge := func(u, v VertexID) {
		if err := b.AddEdge(u, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge(0, 1)
	mustEdge(1, 2)
	mustEdge(3, 4)
	// 5 isolated
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("component count = %d", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("0,1,2 should share a component")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Error("3,4 should share a different component")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Error("5 should be isolated")
	}
}

func TestGenerateCityShapes(t *testing.T) {
	sparse, err := GenerateCity(CityOptions{Rows: 20, Cols: 20, Style: StyleSparse, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, comps := sparse.ConnectedComponents(); comps != 1 {
		t.Error("sparse city must be connected")
	}
	n := sparse.NumVertices()
	if n != 400 {
		t.Fatalf("sparse city has %d vertices", n)
	}
	if e := sparse.NumEdges(); e < n-1 || e > n+n/5 {
		t.Errorf("sparse city has %d edges for %d vertices (want ≈ n)", e, n)
	}

	dense, err := GenerateCity(CityOptions{Rows: 20, Cols: 20, Style: StyleDense, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, comps := dense.ConnectedComponents(); comps != 1 {
		t.Error("dense city must be connected")
	}
	if deg := 2 * float64(dense.NumEdges()) / float64(dense.NumVertices()); deg < 4 || deg > 7 {
		t.Errorf("dense city mean degree %g, want ≈ 5", deg)
	}
	if _, err := GenerateCity(CityOptions{Rows: 1, Cols: 5}); err == nil {
		t.Error("too-small grid should error")
	}
}

func TestGenerateCityDeterministic(t *testing.T) {
	a := BRNLike(0.05, 9)
	b := BRNLike(0.05, 9)
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different shapes")
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Point(VertexID(v)) != b.Point(VertexID(v)) {
			t.Fatal("same seed produced different coordinates")
		}
	}
	c := BRNLike(0.05, 10)
	same := true
	for v := 0; v < a.NumVertices() && v < c.NumVertices(); v++ {
		if a.Point(VertexID(v)) != c.Point(VertexID(v)) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical coordinates")
	}
}

func TestCityWeightsAdmissible(t *testing.T) {
	g := NRNLike(0.05, 3)
	// Generated weights are euclidean × lift, never below the euclidean
	// length.
	for v := 0; v < g.NumVertices(); v++ {
		to, w := g.Neighbors(VertexID(v))
		for i, tt := range to {
			d := g.Point(VertexID(v)).Dist(g.Point(VertexID(tt)))
			if w[i] < d-1e-12 {
				t.Fatalf("edge {%d,%d} weight %g below euclidean %g", v, tt, w[i], d)
			}
		}
	}
}

func TestGraphIORoundTrip(t *testing.T) {
	g := randomConnected(50, 40, 7)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip shape: %d/%d vs %d/%d",
			got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if got.Point(VertexID(v)) != g.Point(VertexID(v)) {
			t.Fatalf("vertex %d moved", v)
		}
		to, w := g.Neighbors(VertexID(v))
		for i, tt := range to {
			gw, ok := got.EdgeWeight(VertexID(v), VertexID(tt))
			if !ok || gw != w[i] {
				t.Fatalf("edge {%d,%d} lost or changed", v, tt)
			}
		}
	}
}

func TestReadGraphRejectsGarbage(t *testing.T) {
	if _, err := ReadGraph(bytes.NewReader([]byte("not a graph at all"))); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := ReadGraph(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
	// Correct magic, truncated body.
	if _, err := ReadGraph(bytes.NewReader([]byte(graphMagic))); err == nil {
		t.Error("truncated header should fail")
	}
}
