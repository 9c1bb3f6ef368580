package roadnet

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"uots/internal/geo"
)

// floydWarshall computes all-pairs shortest distances by brute force.
func floydWarshall(g *Graph) [][]float64 {
	n := g.NumVertices()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for v := 0; v < n; v++ {
		to, w := g.Neighbors(VertexID(v))
		for i, t := range to {
			if w[i] < d[v][t] {
				d[v][t] = w[i]
				d[t][v] = w[i]
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

func TestSSSPMatchesFloydWarshall(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := randomConnected(40, 30, seed)
		want := floydWarshall(g)
		s := NewSSSP(g)
		for src := 0; src < g.NumVertices(); src++ {
			s.Run(VertexID(src))
			for v := 0; v < g.NumVertices(); v++ {
				got := s.Dist(VertexID(v))
				if math.Abs(got-want[src][v]) > 1e-9 {
					t.Fatalf("seed %d: d(%d,%d) = %g, want %g", seed, src, v, got, want[src][v])
				}
			}
		}
	}
}

func TestSSSPEarlyStop(t *testing.T) {
	g := line(t, 10)
	s := NewSSSP(g)
	var settled []VertexID
	s.RunUntil(0, func(v VertexID, d float64) bool {
		settled = append(settled, v)
		return len(settled) < 3
	})
	if len(settled) != 3 {
		t.Fatalf("settled %d vertices, want 3", len(settled))
	}
	// Settled in distance order on a line: 0, 1, 2.
	for i, v := range settled {
		if v != VertexID(i) {
			t.Fatalf("settle order %v", settled)
		}
	}
	if s.Settled(9) {
		t.Error("vertex 9 should not be settled after early stop")
	}
}

func TestSSSPDistToSet(t *testing.T) {
	g := line(t, 10)
	s := NewSSSP(g)
	targets := map[VertexID]bool{7: true, 9: true}
	v, d := s.DistToSet(2, func(v VertexID) bool { return targets[v] })
	if v != 7 || d != 5 {
		t.Fatalf("DistToSet = (%d, %g), want (7, 5)", v, d)
	}
	v, d = s.DistToSet(2, func(VertexID) bool { return false })
	if v != -1 || !math.IsInf(d, 1) {
		t.Fatalf("unreachable target = (%d, %g)", v, d)
	}
}

// TestExpanderSettlesInDistanceOrder drains one root's scan cursor: it
// passes every vertex once, in non-decreasing distance order, at SSSP's
// distances, with the scan radius at the last distance and then
// Unreachable.
func TestExpanderSettlesInDistanceOrder(t *testing.T) {
	g := randomConnected(80, 60, 17)
	gs := NewGoalSearch(g, []VertexID{0})
	s := NewSSSP(g)
	s.Run(0)
	prev := -1.0
	seen := make(map[VertexID]bool)
	for {
		v, d, _, ok := gs.Scan(0)
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("vertex %d scanned twice", v)
		}
		seen[v] = true
		if d < prev {
			t.Fatalf("settle order violated: %g after %g", d, prev)
		}
		if math.Abs(d-s.Dist(v)) > 1e-9 {
			t.Fatalf("scan dist %g != sssp %g at %d", d, s.Dist(v), v)
		}
		if gs.ScanRadius(0) != d {
			t.Fatalf("ScanRadius %g != last scanned %g", gs.ScanRadius(0), d)
		}
		prev = d
	}
	if len(seen) != g.NumVertices() || gs.Settles(0) != g.NumVertices() {
		t.Fatalf("scanned %d of %d, %d settles", len(seen), g.NumVertices(), gs.Settles(0))
	}
	if !math.IsInf(gs.ScanRadius(0), 1) || !math.IsInf(gs.Radius(0), 1) {
		t.Error("an exhausted run should report an infinite radius")
	}
}

// TestExpanderRadiusLowerBoundsUnsettled: after twenty scans, no vertex
// the cursor has not passed is closer than the scan radius, also when a
// Step has taken the run further than the cursor.
func TestExpanderRadiusLowerBoundsUnsettled(t *testing.T) {
	g := randomConnected(60, 40, 19)
	s := NewSSSP(g)
	s.Run(5)
	gs := NewGoalSearch(g, []VertexID{5})
	for i := 0; i < 30; i++ {
		gs.Step(0)
	}
	scanned := make(map[VertexID]bool)
	for i := 0; i < 20; i++ {
		v, _, settled, _ := gs.Scan(0)
		if settled {
			t.Fatalf("scan %d settled a vertex the run had already settled", i)
		}
		scanned[v] = true
	}
	r := gs.ScanRadius(0)
	for v := 0; v < g.NumVertices(); v++ {
		if !scanned[VertexID(v)] {
			if s.Dist(VertexID(v)) < r-1e-9 {
				t.Fatalf("unscanned vertex %d closer (%g) than radius %g", v, s.Dist(VertexID(v)), r)
			}
		}
	}
}

func TestBidirectionalMatchesSSSP(t *testing.T) {
	g := randomConnected(70, 50, 29)
	b := NewBidirectional(g)
	s := NewSSSP(g)
	rng := rand.New(rand.NewPCG(31, 37))
	for trial := 0; trial < 60; trial++ {
		u := VertexID(rng.IntN(g.NumVertices()))
		v := VertexID(rng.IntN(g.NumVertices()))
		s.Run(u)
		want := s.Dist(v)
		got, ok := b.Dist(u, v)
		if !ok || math.Abs(got-want) > 1e-9 {
			t.Fatalf("bidir d(%d,%d) = (%g, %v), want %g", u, v, got, ok, want)
		}
		path, pd, ok := b.Path(u, v)
		if !ok || math.Abs(pd-want) > 1e-9 {
			t.Fatalf("bidir path d(%d,%d) = %g, want %g", u, v, pd, want)
		}
		if path[0] != u || path[len(path)-1] != v {
			t.Fatalf("path endpoints %v for (%d,%d)", path, u, v)
		}
		var sum float64
		for i := 1; i < len(path); i++ {
			w, ok := g.EdgeWeight(path[i-1], path[i])
			if !ok {
				t.Fatalf("path uses nonexistent edge")
			}
			sum += w
		}
		if math.Abs(sum-want) > 1e-9 {
			t.Fatalf("path edge sum %g != %g", sum, want)
		}
	}
	// Same-vertex query.
	if d, ok := b.Dist(3, 3); !ok || d != 0 {
		t.Errorf("Dist(3,3) = (%g, %v)", d, ok)
	}
	if path, d, ok := b.Path(3, 3); !ok || d != 0 || len(path) != 1 || path[0] != 3 {
		t.Errorf("Path(3,3) = (%v, %g, %v)", path, d, ok)
	}
}

func TestBidirectionalDisconnected(t *testing.T) {
	var bld Builder
	bld.AddVertex(geo.Point{})
	bld.AddVertex(geo.Point{X: 1})
	bld.AddVertex(geo.Point{X: 2})
	if err := bld.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBidirectional(g)
	if _, ok := b.Dist(0, 2); ok {
		t.Error("disconnected pair should report !ok")
	}
	if _, _, ok := b.Path(0, 2); ok {
		t.Error("disconnected pair should have no path")
	}
}

func TestLandmarksLowerBound(t *testing.T) {
	g := randomConnected(80, 60, 53)
	lm := NewLandmarks(g, 8, 0)
	if lm.Count() != 8 {
		t.Fatalf("landmark count = %d", lm.Count())
	}
	s := NewSSSP(g)
	rng := rand.New(rand.NewPCG(59, 61))
	for trial := 0; trial < 50; trial++ {
		u := VertexID(rng.IntN(g.NumVertices()))
		v := VertexID(rng.IntN(g.NumVertices()))
		s.Run(u)
		want := s.Dist(v)
		lb := lm.LowerBound(u, v)
		if lb > want+1e-9 {
			t.Fatalf("landmark LB %g exceeds true distance %g for (%d,%d)", lb, want, u, v)
		}
	}
	// LowerBoundToSet must lower-bound the minimum distance to the set.
	for trial := 0; trial < 20; trial++ {
		u := VertexID(rng.IntN(g.NumVertices()))
		set := []VertexID{VertexID(rng.IntN(g.NumVertices())), VertexID(rng.IntN(g.NumVertices()))}
		s.Run(u)
		want := math.Min(s.Dist(set[0]), s.Dist(set[1]))
		if lb := lm.LowerBoundToSet(u, set); lb > want+1e-9 {
			t.Fatalf("set LB %g exceeds %g", lb, want)
		}
	}
	if lb := lm.LowerBoundToSet(0, nil); !math.IsInf(lb, 1) {
		t.Errorf("empty set LB = %g", lb)
	}
	empty := NewLandmarks(g, 0, 0)
	if empty.Count() != 0 || empty.LowerBound(0, 1) != 0 {
		t.Error("zero landmarks should give trivial bounds")
	}
}

func TestVertexIndexNearestMatchesBrute(t *testing.T) {
	g := randomConnected(120, 80, 67)
	idx := NewVertexIndex(g, 0)
	rng := rand.New(rand.NewPCG(71, 73))
	for trial := 0; trial < 100; trial++ {
		p := geo.Point{X: rng.Float64()*14 - 2, Y: rng.Float64()*14 - 2}
		got, gotD := idx.Nearest(p)
		bestD := math.Inf(1)
		for v := 0; v < g.NumVertices(); v++ {
			if d := p.Dist(g.Point(VertexID(v))); d < bestD {
				bestD = d
			}
		}
		if math.Abs(gotD-bestD) > 1e-9 {
			t.Fatalf("Nearest(%v) = (%d, %g), brute %g", p, got, gotD, bestD)
		}
	}
}

func TestVertexIndexWithin(t *testing.T) {
	g := randomConnected(100, 70, 79)
	idx := NewVertexIndex(g, 0.8)
	rng := rand.New(rand.NewPCG(83, 89))
	for trial := 0; trial < 50; trial++ {
		p := geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		r := rng.Float64() * 3
		got := idx.Within(p, r)
		want := map[VertexID]bool{}
		for v := 0; v < g.NumVertices(); v++ {
			if p.Dist(g.Point(VertexID(v))) <= r {
				want[VertexID(v)] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Within(%v, %g) returned %d, want %d", p, r, len(got), len(want))
		}
		for _, v := range got {
			if !want[v] {
				t.Fatalf("Within returned %d outside radius", v)
			}
		}
	}
	if got := idx.Within(geo.Point{}, -1); len(got) != 0 {
		t.Errorf("negative radius returned %d vertices", len(got))
	}
}

// resolve answers the distance from every root of gs to targets the way
// the engine's probe does: a root whose run already met the set answers
// at once, and the others advance, smallest radius first, until each
// settles a target or exhausts its component. It returns the distances
// and the settles spent, and checks that radii never shrink and that an
// answered root stays answered.
func resolve(t *testing.T, gs *GoalSearch, targets []VertexID) ([]float64, int) {
	t.Helper()
	gs.Target(targets)
	out := make([]float64, len(gs.roots))
	var open []int
	for i := range out {
		if d, ok := gs.Known(i); ok {
			out[i] = d
		} else {
			open = append(open, i)
		}
	}
	settles := 0
	for len(open) > 0 {
		j := 0
		for k, i := range open {
			if gs.Radius(i) < gs.Radius(open[j]) {
				j = k
			}
		}
		i, before := open[j], gs.Radius(open[j])
		d, hit, ok := gs.Step(i)
		if ok {
			settles++
		}
		if d < before || gs.Radius(i) != d {
			t.Fatalf("root %d: radius %g after %g, step returned %g", i, gs.Radius(i), before, d)
		}
		if hit || !ok {
			out[i] = d
			open = slices.Delete(open, j, j+1)
		}
	}
	for i, d := range out {
		if known, ok := gs.Known(i); !ok || known != d {
			t.Fatalf("root %d answered %g, then Known = (%g, %v)", i, d, known, ok)
		}
	}
	return out, settles
}

// TestGoalSearchFromSet resolves a stream of target sets on one
// workspace, so later sets resume the runs earlier ones left, and
// requires every distance to have SSSP's bits: each run is a Dijkstra
// rooted at its root. Roots and targets repeat; the two-component graph
// has unreachable pairs.
func TestGoalSearchFromSet(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"random", randomConnected(80, 60, 107)},
		{"nrn", NRNLike(0.04, 5)},
		{"two-component", twoComponents(41)},
	} {
		g := tc.g
		gs := NewGoalSearch(g, nil)
		s := NewSSSP(g)
		rng := rand.New(rand.NewPCG(109, 113))
		unreachable, resumed := 0, 0
		for query := 0; query < 5; query++ {
			roots := make([]VertexID, 1+rng.IntN(5))
			for i := range roots {
				roots[i] = VertexID(rng.IntN(g.NumVertices()))
			}
			roots = append(roots, roots[0])
			gs.Reset(roots)
			for trial := 0; trial < 10; trial++ {
				targets := make([]VertexID, 1+rng.IntN(4))
				for i := range targets {
					targets[i] = VertexID(rng.IntN(g.NumVertices()))
				}
				targets = append(targets, targets[0])
				got, settles := resolve(t, gs, targets)
				if settles == 0 {
					resumed++
				}
				for i, root := range roots {
					s.Run(root)
					want := Unreachable
					for _, tgt := range targets {
						want = min(want, s.Dist(tgt))
					}
					if want == Unreachable {
						unreachable++
					}
					if got[i] != want {
						t.Fatalf("%s: root %d to %v = %g, SSSP %g", tc.name, root, targets, got[i], want)
					}
				}
			}
		}
		if resumed == 0 || tc.name == "two-component" && unreachable == 0 {
			t.Fatalf("%s: %d sets answered without a settle, %d unreachable pairs", tc.name, resumed, unreachable)
		}
	}
}

// TestAStarMatchesSSSP: with one root and one target GoalSearch answers
// a point-to-point query, which must have SSSP's bits, on a city, a
// random graph and a graph whose pairs across halves are unreachable.
func TestAStarMatchesSSSP(t *testing.T) {
	for _, g := range []*Graph{NRNLike(0.04, 5), randomConnected(60, 45, 41), twoComponents(41)} {
		gs := NewGoalSearch(g, nil)
		s := NewSSSP(g)
		rng := rand.New(rand.NewPCG(43, 47))
		for trial := 0; trial < 40; trial++ {
			u := VertexID(rng.IntN(g.NumVertices()))
			v := VertexID(rng.IntN(g.NumVertices()))
			s.Run(u)
			gs.Reset([]VertexID{u})
			if got, _ := resolve(t, gs, []VertexID{v}); got[0] != s.Dist(v) {
				t.Fatalf("d(%d,%d) = %g, SSSP %g", u, v, got[0], s.Dist(v))
			}
		}
	}
}

func TestShortestPathHelper(t *testing.T) {
	g := line(t, 5)
	path, d, ok := ShortestPath(g, 0, 4)
	if !ok || d != 4 || len(path) != 5 {
		t.Fatalf("ShortestPath = (%v, %g, %v)", path, d, ok)
	}
}
