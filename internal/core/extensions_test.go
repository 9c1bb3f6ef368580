package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"uots/internal/roadnet"
	"uots/internal/trajdb"
)

// TimeWindow.Contains and Validate boundary tests live in
// timewindow_test.go.

func mustNormalize(t *testing.T, q Query, e *Engine) Query {
	t.Helper()
	nq, err := q.normalize(e.g)
	if err != nil {
		t.Fatal(err)
	}
	return nq
}

// orderAwareBrute computes the order-aware spatial similarity by checking
// every monotone assignment explicitly (exponential; tiny inputs only).
func orderAwareBrute(e *Engine, q Query, id trajdb.TrajID) float64 {
	traj := e.db.Traj(id)
	m := traj.Len()
	n := len(q.Locations)
	// Exact per-pair distances via one full Dijkstra per location.
	kernelAt := make([][]float64, n)
	sssp := roadnet.NewSSSP(e.g)
	for i, o := range q.Locations {
		sssp.Run(o)
		row := make([]float64, m)
		for j, s := range traj.Samples {
			row[j] = e.kernel(sssp.Dist(s.V))
		}
		kernelAt[i] = row
	}
	var rec func(i, minJ int) float64
	rec = func(i, minJ int) float64 {
		if i == n {
			return 0
		}
		best := math.Inf(-1)
		for j := minJ; j < m; j++ {
			if v := kernelAt[i][j] + rec(i+1, j); v > best {
				best = v
			}
		}
		return best
	}
	return rec(0, 0) / float64(n)
}

func TestOrderAwareEvaluateMatchesBrute(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(211, 212))
	for trial := 0; trial < 8; trial++ {
		q := f.randomQuery(rng, 1+rng.IntN(3), 2, 0.6, 1)
		id := trajdb.TrajID(rng.IntN(f.db.NumTrajectories()))
		got, err := e.OrderAwareEvaluate(q, id)
		if err != nil {
			t.Fatal(err)
		}
		nq := mustNormalize(t, q, e)
		want := orderAwareBrute(e, nq, id)
		if math.Abs(got.Spatial-want) > 1e-9 {
			t.Fatalf("trial %d traj %d: ordered spatial %g, brute %g", trial, id, got.Spatial, want)
		}
	}
	if _, err := e.OrderAwareEvaluate(Query{Locations: f.randomQuery(rng, 1, 0, 0.5, 1).Locations}, -1); !errors.Is(err, ErrTrajRange) {
		t.Errorf("bad traj id: %v", err)
	}
}

// TestOrderedScoringAfterAProbe scores trips on one request's goal
// search right after a probe-like resolution of another trip (its
// vertices made the target set, each run stepped to its nearest one), as
// the order-aware sink does when it completes a trip after a probe. Each
// scoring must equal OrderAwareEvaluate's, whose search is fresh: a
// scoring that kept the probe's target set would count the probed
// trip's vertices as its own and stop its runs short. Through the
// engine that rarely changes an answer (a stale scoring mostly runs on
// to the end of the component), so this pins the retargeting directly.
func TestOrderedScoringAfterAProbe(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(273, 0))
	n := e.db.NumTrajectories()
	for trial := range 8 {
		q := mustNormalize(t, f.randomQuery(rng, 4, 0, 1, 1), e)
		scr := acquireScratch(e.g, n, q.Locations)
		for range 8 {
			probed, scored := trajdb.TrajID(rng.IntN(n)), trajdb.TrajID(rng.IntN(n))
			gs := scr.goal
			gs.Target(e.db.UniqueVertices(probed))
			for i := range q.Locations {
				for _, known := gs.Known(i); !known; _, known = gs.Known(i) {
					gs.Step(i)
				}
			}
			var stats SearchStats
			got, err := e.orderAwareResult(scr, q, scored, make([]float64, len(q.Locations)), canceller{}, &stats)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.OrderAwareEvaluate(q, scored)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("trial %d: trip %d scored after a probe of trip %d: %+v, fresh %+v", trial, scored, probed, got, want)
			}
		}
		scr.release()
	}
}

func TestOrderAwareNeverExceedsUnordered(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(221, 222))
	for trial := 0; trial < 10; trial++ {
		q := f.randomQuery(rng, 1+rng.IntN(4), 2, 0.5, 1)
		id := trajdb.TrajID(rng.IntN(f.db.NumTrajectories()))
		ordered, err := e.OrderAwareEvaluate(q, id)
		if err != nil {
			t.Fatal(err)
		}
		unordered, err := e.Evaluate(q, id)
		if err != nil {
			t.Fatal(err)
		}
		if ordered.Spatial > unordered.Spatial+1e-9 {
			t.Fatalf("ordered spatial %g exceeds unordered %g", ordered.Spatial, unordered.Spatial)
		}
	}
}

// TestOrderAwareReversedItinerary pins the semantics: reversing the
// itinerary changes the score when the trajectory visits the places in one
// direction only.
func TestOrderAwareReversedItinerary(t *testing.T) {
	e, f := testEngineDefault(t)
	// Find a trajectory with a decent length and use its endpoints as an
	// itinerary in travel order, then reversed.
	var id trajdb.TrajID = -1
	for i := 0; i < f.db.NumTrajectories(); i++ {
		if f.db.Traj(trajdb.TrajID(i)).Len() >= 10 {
			id = trajdb.TrajID(i)
			break
		}
	}
	if id < 0 {
		t.Skip("no long trajectory in fixture")
	}
	traj := f.db.Traj(id)
	first := traj.Samples[0].V
	last := traj.Samples[traj.Len()-1].V
	if first == last {
		t.Skip("trajectory is a loop")
	}
	fwd := Query{Locations: []roadnet.VertexID{first, last}, Lambda: 1, K: 1}
	rev := Query{Locations: []roadnet.VertexID{last, first}, Lambda: 1, K: 1}
	f1, err := e.OrderAwareEvaluate(fwd, id)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e.OrderAwareEvaluate(rev, id)
	if err != nil {
		t.Fatal(err)
	}
	// Forward itinerary matches both endpoints exactly (kernel 1 each);
	// reversed must pay for order violation on at least one of them.
	if f1.Spatial <= r1.Spatial {
		t.Errorf("forward %g should beat reversed %g", f1.Spatial, r1.Spatial)
	}
	if math.Abs(f1.Spatial-1) > 1e-9 {
		t.Errorf("forward endpoints should score spatial 1, got %g", f1.Spatial)
	}
}
