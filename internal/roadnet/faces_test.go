package roadnet

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// workspaces holds one instance of every search face on one graph.
type workspaces struct {
	sssp *SSSP
	gs   *GoalSearch
	bd   *Bidirectional
}

func newWorkspaces(g *Graph) workspaces {
	return workspaces{NewSSSP(g), NewGoalSearch(g, nil), NewBidirectional(g)}
}

// face drives one search face: run draws its inputs from rng, checks every
// distance the face reports against the all-pairs oracle fw, and returns
// what it observed (settle sequences, distances, paths); state returns the
// vertex state the face ran on.
type face struct {
	name  string
	run   func(t *testing.T, w workspaces, fw [][]float64, rng *rand.Rand) []float64
	state func(w workspaces) []*search
}

func checkDist(t *testing.T, what string, got, want float64) {
	t.Helper()
	if got != want && !(math.Abs(got-want) <= 1e-9) {
		t.Fatalf("%s = %g, want %g", what, got, want)
	}
}

// runStates returns the vertex state of gs's runs, one per root.
func runStates(w workspaces) []*search {
	var states []*search
	for _, r := range w.gs.runs[:len(w.gs.roots)] {
		states = append(states, &r.search)
	}
	return states
}

// settleOrder returns the vertices SSSP from src settles, in order: the
// order every run rooted at src settles them in, since the order depends
// only on the graph and the root.
func settleOrder(s *SSSP, src VertexID) []VertexID {
	var order []VertexID
	s.RunUntil(src, func(v VertexID, _ float64) bool {
		order = append(order, v)
		return true
	})
	return order
}

var (
	scanFace = face{
		name: "GoalSearch Scan drain and Reset",
		run: func(t *testing.T, w workspaces, fw [][]float64, rng *rand.Rand) []float64 {
			n := len(fw)
			src := VertexID(rng.IntN(n))
			limit := rng.IntN(2 * n) // below n the drain may stop part-way, leaving a dirty frontier
			w.gs.Reset([]VertexID{src})
			var obs []float64
			first := 0 // observations of the first pass
			for pass := 0; pass < 2; pass++ {
				for scanned := 0; scanned < limit; scanned++ {
					v, d, settled, ok := w.gs.Scan(0)
					obs = append(obs, float64(v), d, w.gs.ScanRadius(0))
					if settled != ok {
						t.Fatalf("pass %d, scan %d from %d: settled = %v", pass, scanned, src, settled)
					}
					if !ok {
						reachable := 0
						for _, d := range fw[src] {
							if d != Unreachable {
								reachable++
							}
						}
						if scanned != reachable || w.gs.ScanRadius(0) != Unreachable {
							t.Fatalf("scan from %d drained after %d scans (reachable %d), radius %g",
								src, scanned, reachable, w.gs.ScanRadius(0))
						}
						break
					}
					checkDist(t, "scan distance", d, fw[src][v])
				}
				if pass == 0 {
					// The second pass settles the first one's order afresh.
					w.gs.Reset([]VertexID{src})
					if w.gs.ScanRadius(0) != 0 || w.gs.Settles(0) != 0 {
						t.Fatalf("Reset from %d: scan radius %g, %d settles", src, w.gs.ScanRadius(0), w.gs.Settles(0))
					}
					first = len(obs)
				}
			}
			if !slices.Equal(obs[:first], obs[first:]) {
				t.Fatalf("scans from %d after Reset observed %v, before %v", src, obs[first:], obs[:first])
			}
			return obs
		},
		state: runStates,
	}
	interleaveFace = face{
		name: "GoalSearch Step and Scan interleaved on one root",
		run: func(t *testing.T, w workspaces, fw [][]float64, rng *rand.Rand) []float64 {
			n := len(fw)
			src := VertexID(rng.IntN(n))
			order := settleOrder(w.sssp, src)
			w.gs.Reset([]VertexID{src})
			var obs []float64
			scans, stepReach := 0, 0 // how far the scan cursor and the last Step reached
			for ops := rng.IntN(3 * n); ops > 0; ops-- {
				before := w.gs.Settles(0)
				if rng.IntN(2) == 0 {
					d, _, ok := w.gs.Step(0)
					if ok {
						stepReach = before + 1
						if w.gs.Settles(0) != stepReach || d != w.sssp.Dist(order[before]) {
							t.Fatalf("Step from %d: %d settles, distance %g, want %d at %g", src, w.gs.Settles(0), d, stepReach, w.sssp.Dist(order[before]))
						}
					} else if before != len(order) {
						t.Fatalf("Step from %d ran out after %d of %d settles", src, before, len(order))
					}
					obs = append(obs, d)
					continue
				}
				v, d, settled, ok := w.gs.Scan(0)
				if !ok {
					if scans != len(order) || w.gs.ScanRadius(0) != Unreachable {
						t.Fatalf("Scan from %d ran out after %d of %d, radius %g", src, scans, len(order), w.gs.ScanRadius(0))
					}
					obs = append(obs, d)
					continue
				}
				// The scan sequence is the undisturbed run's.
				if v != order[scans] || d != w.sssp.Dist(v) || w.gs.ScanRadius(0) != d {
					t.Fatalf("scan %d from %d = (%d, %g, radius %g), undisturbed (%d, %g)",
						scans, src, v, d, w.gs.ScanRadius(0), order[scans], w.sssp.Dist(order[scans]))
				}
				scans++
				obs = append(obs, float64(v), d, w.gs.ScanRadius(0))
				// No vertex settles twice: the run is as long as the
				// furthest reach of either caller.
				if got, want := w.gs.Settles(0), max(scans, stepReach); got != want || settled != (got > before) {
					t.Fatalf("scan %d from %d: run settled %d (settled = %v), furthest reach %d", scans, src, got, settled, want)
				}
				if w.gs.Radius(0) < w.gs.ScanRadius(0) {
					t.Fatalf("run radius %g below scan radius %g", w.gs.Radius(0), w.gs.ScanRadius(0))
				}
			}
			return obs
		},
		state: runStates,
	}
	ssspFace = face{
		name: "SSSP RunUntil stopped early, then Run",
		run: func(t *testing.T, w workspaces, fw [][]float64, rng *rand.Rand) []float64 {
			n := len(fw)
			src, stop := VertexID(rng.IntN(n)), 1+rng.IntN(n)
			var obs []float64
			w.sssp.RunUntil(src, func(v VertexID, d float64) bool {
				checkDist(t, "RunUntil distance", d, fw[src][v])
				obs = append(obs, float64(v), d)
				return len(obs) < 2*stop
			})
			src = VertexID(rng.IntN(n))
			w.sssp.Run(src)
			for v := 0; v < n; v++ {
				d := w.sssp.Dist(VertexID(v))
				checkDist(t, "Run distance", d, fw[src][v])
				if w.sssp.Settled(VertexID(v)) != (d != Unreachable) {
					t.Fatalf("Run from %d: Settled(%d) = %v at distance %g", src, v, w.sssp.Settled(VertexID(v)), d)
				}
				obs = append(obs, d)
			}
			return obs
		},
		state: func(w workspaces) []*search { return []*search{&w.sssp.search} },
	}
	goalSearchFace = face{
		name: "GoalSearch Reset, then a stream of target sets",
		run: func(t *testing.T, w workspaces, fw [][]float64, rng *rand.Rand) []float64 {
			n := len(fw)
			roots := make([]VertexID, 1+rng.IntN(4))
			for i := range roots {
				roots[i] = VertexID(rng.IntN(n))
			}
			w.gs.Reset(roots)
			var obs []float64
			for sets := 1 + rng.IntN(3); sets > 0; sets-- {
				targets := make([]VertexID, 1+rng.IntN(3))
				for i := range targets {
					targets[i] = VertexID(rng.IntN(n))
				}
				got, settles := resolve(t, w.gs, targets)
				for i, root := range roots {
					want := Unreachable
					for _, tgt := range targets {
						want = math.Min(want, fw[root][tgt])
						// Dist reads a settled vertex's own distance; an
						// unsettled one is at least the radius away.
						if d, ok := w.gs.Dist(i, tgt); ok {
							checkDist(t, "GoalSearch Dist", d, fw[root][tgt])
						} else if fw[root][tgt] < w.gs.Radius(i) {
							t.Fatalf("Dist(%d, %d) unsettled at %g, inside radius %g", i, tgt, fw[root][tgt], w.gs.Radius(i))
						}
					}
					checkDist(t, "GoalSearch distance", got[i], want)
				}
				obs = append(append(obs, got...), float64(settles))
			}
			return obs
		},
		state: runStates,
	}
	bidirectionalFace = face{
		name: "Bidirectional Dist and Path",
		run: func(t *testing.T, w workspaces, fw [][]float64, rng *rand.Rand) []float64 {
			n := len(fw)
			u, v := VertexID(rng.IntN(n)), VertexID(rng.IntN(n))
			d, ok := w.bd.Dist(u, v)
			checkDist(t, "bidirectional Dist", d, fw[u][v])
			if ok != (d != Unreachable) {
				t.Fatalf("Dist(%d, %d) = (%g, %v)", u, v, d, ok)
			}
			obs := []float64{d}
			u, v = VertexID(rng.IntN(n)), VertexID(rng.IntN(n))
			path, pd, ok := w.bd.Path(u, v)
			checkDist(t, "bidirectional Path length", pd, fw[u][v])
			if ok != (pd != Unreachable) || ok && (path[0] != u || path[len(path)-1] != v) {
				t.Fatalf("Path(%d, %d) = (%v, %g, %v)", u, v, path, pd, ok)
			}
			g := w.bd.side[0].g
			var sum float64
			for i := 1; i < len(path); i++ {
				ew, edge := g.EdgeWeight(path[i-1], path[i])
				if !edge {
					t.Fatalf("Path(%d, %d) uses nonexistent edge {%d,%d}", u, v, path[i-1], path[i])
				}
				sum += ew
			}
			if ok {
				checkDist(t, "bidirectional Path edge sum", sum, pd)
			}
			for _, x := range path {
				obs = append(obs, float64(x))
			}
			return append(obs, pd)
		},
		state: func(w workspaces) []*search { return []*search{&w.bd.side[0], &w.bd.side[1]} },
	}
)

// sameState fails unless two vertex states are indistinguishable: the
// same distances, settled set, queue and touched list.
func sameState(t *testing.T, what string, got, want *search) {
	t.Helper()
	if !slices.Equal(got.dist, want.dist) || !slices.Equal(got.settled, want.settled) ||
		!slices.Equal(got.pos, want.pos) || !slices.Equal(got.keys, want.keys) ||
		!slices.Equal(got.touched, want.touched) {
		t.Fatalf("%s: reused vertex state differs from a fresh one", what)
	}
}

// checkFaces runs each face runs times on one reused set of workspaces
// and on a brand-new set each time, with the same inputs, and requires
// the same observations and the same final vertex state.
func checkFaces(t *testing.T, g *Graph, seed uint64, runs int, faces ...face) {
	t.Helper()
	fw := floydWarshall(g)
	reused := newWorkspaces(g)
	for _, f := range faces {
		for i := 0; i < runs; i++ {
			got := f.run(t, reused, fw, rand.New(rand.NewPCG(seed, uint64(i))))
			fresh := newWorkspaces(g)
			want := f.run(t, fresh, fw, rand.New(rand.NewPCG(seed, uint64(i))))
			if !slices.Equal(got, want) {
				t.Fatalf("%s, run %d: reused workspace observed %v, fresh %v", f.name, i, got, want)
			}
			freshState, reusedState := f.state(fresh), f.state(reused)
			if len(reusedState) != len(freshState) {
				t.Fatalf("%s, run %d: reused workspace ran %d searches, fresh %d", f.name, i, len(reusedState), len(freshState))
			}
			for j, s := range reusedState {
				sameState(t, f.name, s, freshState[j])
			}
		}
	}
}

// checkReuse runs checkFaces on a connected and a two-component graph.
func checkReuse(t *testing.T, faces ...face) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"connected", randomConnected(40, 30, 13)},
		{"two-component", twoComponents(23)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkFaces(t, tc.g, 31, 60, faces...) })
	}
}

func TestSSSPReuseAcrossRuns(t *testing.T) { checkReuse(t, ssspFace) }

func TestExpanderReset(t *testing.T) { checkReuse(t, scanFace) }

func TestScanInterleavedWithStep(t *testing.T) { checkReuse(t, interleaveFace) }

func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	checkReuse(t, goalSearchFace, bidirectionalFace)
}
