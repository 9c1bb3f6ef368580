package core

import (
	"context"
	"math/rand/v2"
	"testing"

	"uots/internal/trajdb"
)

// TestThresholdOneReturnsOnlyPerfectMatches pins θ=1: only trajectories
// with both spatial and textual similarity 1 qualify.
func TestThresholdOneReturnsOnlyPerfectMatches(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(501, 502))
	q := f.randomQuery(rng, 2, 2, 0.5, 1)
	res, _, err := e.SearchThresholdCtx(context.Background(), q, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Score < 1-scoreTol {
			t.Errorf("θ=1 returned score %g", r.Score)
		}
	}
}

// TestThresholdMonotone: lowering θ only grows the qualified set.
func TestThresholdMonotone(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(701, 702))
	q := f.randomQuery(rng, 2, 3, 0.4, 1)
	prevCount := 0
	for _, theta := range []float64{0.9, 0.7, 0.5, 0.3} {
		res, _, err := e.SearchThresholdCtx(context.Background(), q, theta)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) < prevCount {
			t.Fatalf("θ=%g returned %d < previous %d", theta, len(res), prevCount)
		}
		prevCount = len(res)
	}
}

// TestDensifiedCorpusImprovesSpatialScores pins the semantics of
// trajdb.Densify: distances to a superset of route points can only
// shrink, so every trajectory's spatial similarity is at least its
// undensified value.
func TestDensifiedCorpusImprovesSpatialScores(t *testing.T) {
	f := testFixture(t)
	dense, err := trajdb.Densify(f.db)
	if err != nil {
		t.Fatal(err)
	}
	sparseEngine, err := NewEngine(f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	denseEngine, err := NewEngine(dense, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(901, 902))
	q := f.randomQuery(rng, 3, 0, 1, 1)
	for trial := 0; trial < 20; trial++ {
		id := trajdb.TrajID(rng.IntN(f.db.NumTrajectories()))
		sparse, err := sparseEngine.Evaluate(q, id)
		if err != nil {
			t.Fatal(err)
		}
		denseRes, err := denseEngine.Evaluate(q, id)
		if err != nil {
			t.Fatal(err)
		}
		if denseRes.Spatial < sparse.Spatial-1e-9 {
			t.Fatalf("traj %d: densified spatial %g below sparse %g", id, denseRes.Spatial, sparse.Spatial)
		}
		for i := range sparse.Dists {
			if denseRes.Dists[i] > sparse.Dists[i]+1e-9 {
				t.Fatalf("traj %d: densified distance %g exceeds sparse %g", id, denseRes.Dists[i], sparse.Dists[i])
			}
		}
	}
}
