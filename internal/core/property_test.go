package core

import (
	"context"
	"math"
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

// TestProbeSlackKeepsTheBound is the property the probe's unevaluated
// settles rest on: from a state whose bound is at least the bar, open
// runs grown by as much as the probe's check lets through (d − base ≤
// probeSlack; a hit's distance is the radius it hit at, so a hit is the
// same case) leave the bound's exact expression — the kernels summed in
// location order, then combine — at least the bar. The draws sit at and
// near the boundary: the bar is the bound itself, a few ulps or a
// fraction below it, and most runs grow to the largest distance the
// check admits, where the kernel sum lands on k_c up to the margin.
func TestProbeSlackKeepsTheBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(4901, 0))
	bound := func(e *Engine, lambda, text float64, ds []float64) (ub, sum float64) {
		for _, d := range ds {
			sum += e.kernel(d)
		}
		return combine(lambda, sum/float64(len(ds)), text), sum
	}
	boundary := 0
	for trial := range 20000 {
		n := 1 + rng.IntN(6)
		gamma := math.Exp(6*rng.Float64() - 3)
		e := &Engine{opts: Options{DistScale: gamma}}
		lambda := []float64{1, 0.5, 0.1, 0.05 + 0.95*rng.Float64()}[rng.IntN(4)]
		text := []float64{0, 1. / 3, rng.Float64()}[rng.IntN(3)]
		ds := make([]float64, n) // an exact distance, or an open run's radius
		open := make([]bool, n)
		allOpen := rng.IntN(2) == 0
		for i := range ds {
			ds[i] = gamma * 12 * rng.Float64()
			open[i] = allOpen || rng.IntN(2) == 0
		}
		ub, sum := bound(e, lambda, text, ds)
		bar := ub
		switch rng.IntN(3) {
		case 1:
			for range rng.IntN(8) {
				bar = math.Nextafter(bar, 0)
			}
		case 2:
			bar *= 1 - 0.01*rng.Float64()
		}
		slack := probeSlack(sum, bar, lambda, text, n, gamma)
		if slack < 0 {
			continue // every settle is evaluated
		}
		grown := append([]float64(nil), ds...)
		for i, base := range ds {
			switch {
			case !open[i]:
			case math.IsInf(slack, 1):
				grown[i] = math.MaxFloat64
			case rng.IntN(8) == 0:
				grown[i] = base + slack*rng.Float64()
			default: // the largest d with d − base ≤ slack
				d := base + slack
				for d-base <= slack {
					d = math.Nextafter(d, math.Inf(1))
				}
				for !(d-base <= slack) {
					d = math.Nextafter(d, 0)
				}
				grown[i] = d
			}
		}
		if allOpen && !math.IsInf(slack, 1) {
			boundary++
		}
		if got, _ := bound(e, lambda, text, grown); got < bar {
			t.Fatalf("trial %d: γ %g λ %g text %g radii %v grown by the slack %g to %v: bound %g, below the bar %g",
				trial, gamma, lambda, text, ds, slack, grown, got, bar)
		}
	}
	if boundary < 2000 {
		t.Errorf("only %d draws grew every run to the boundary", boundary)
	}
}
