package core

import (
	"context"
	"math/rand/v2"
	"testing"
)

// TestExpansionMatchesExhaustiveTopK is the central correctness test: over
// a grid of λ, |O|, |ψ| and k, the expansion search must return the same
// top-k scores as the exhaustive ground truth, for every scheduling
// strategy and with/without text probing.
func TestExpansionMatchesExhaustiveTopK(t *testing.T) {
	configs := []Options{
		{Scheduling: ScheduleHeuristic},
		{Scheduling: ScheduleRoundRobin},
		{Scheduling: ScheduleHeuristic, DisableTextProbe: true},
		{Scheduling: ScheduleHeuristic, relabelEvery: 7},
	}
	for ci, opts := range configs {
		e, f := newTestEngine(t, opts)
		rng := rand.New(rand.NewPCG(uint64(100+ci), 5))
		for trial := 0; trial < 12; trial++ {
			nLoc := 1 + rng.IntN(5)
			nKw := rng.IntN(5)
			lambda := [6]float64{0, 0.1, 0.3, 0.5, 0.9, 1.0}[rng.IntN(6)]
			k := 1 + rng.IntN(8)
			q := f.randomQuery(rng, nLoc, nKw, lambda, k)

			want, _, err := e.ExhaustiveSearchCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("config %d trial %d: exhaustive: %v", ci, trial, err)
			}
			got, _, err := e.SearchCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("config %d trial %d: expansion: %v", ci, trial, err)
			}
			sameScores(t, opts.Scheduling.String(), got, want)
		}
	}
}

// TestTextFirstMatchesExhaustive validates the second baseline against the
// same ground truth.
func TestTextFirstMatchesExhaustive(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(42, 43))
	for trial := 0; trial < 10; trial++ {
		q := f.randomQuery(rng, 1+rng.IntN(4), rng.IntN(5), [5]float64{0, 0.2, 0.5, 0.8, 1}[rng.IntN(5)], 1+rng.IntN(5))
		want, _, err := e.ExhaustiveSearchCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("trial %d: exhaustive: %v", trial, err)
		}
		got, _, err := e.TextFirstSearchCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("trial %d: textfirst: %v", trial, err)
		}
		sameScores(t, "textfirst", got, want)
	}
}

// TestTextFirstWithLandmarksMatchesExhaustive validates that the landmark
// pruning inside the TextFirst baseline never changes its answers.
func TestTextFirstWithLandmarksMatchesExhaustive(t *testing.T) {
	tb, _ := testBounds(t)
	e, f := newTestEngine(t, Options{Index: tb})
	rng := rand.New(rand.NewPCG(52, 53))
	for trial := 0; trial < 8; trial++ {
		q := f.randomQuery(rng, 1+rng.IntN(4), rng.IntN(4), [4]float64{0.1, 0.4, 0.7, 1}[rng.IntN(4)], 1+rng.IntN(5))
		want, _, err := e.ExhaustiveSearchCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("trial %d: exhaustive: %v", trial, err)
		}
		got, _, err := e.TextFirstSearchCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("trial %d: textfirst+landmarks: %v", trial, err)
		}
		sameScores(t, "textfirst-landmarks", got, want)
	}
}

// TestThresholdMatchesExhaustive validates the threshold variant: the
// expansion search must find exactly the trajectories the exhaustive scan
// finds above θ.
func TestThresholdMatchesExhaustive(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(77, 78))
	for trial := 0; trial < 12; trial++ {
		q := f.randomQuery(rng, 1+rng.IntN(4), rng.IntN(5), [5]float64{0, 0.2, 0.5, 0.8, 1}[rng.IntN(5)], 1)
		theta := 0.3 + 0.6*rng.Float64()
		want, _, err := e.ExhaustiveThresholdCtx(context.Background(), q, theta)
		if err != nil {
			t.Fatalf("trial %d: exhaustive threshold: %v", trial, err)
		}
		got, _, err := e.SearchThresholdCtx(context.Background(), q, theta)
		if err != nil {
			t.Fatalf("trial %d: expansion threshold: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (θ=%.3f λ=%.1f): got %d qualified, want %d",
				trial, theta, q.Lambda, len(got), len(want))
		}
		gotIDs := make(map[int32]bool, len(got))
		for _, r := range got {
			gotIDs[int32(r.Traj)] = true
			if r.Score < theta-scoreTol {
				t.Errorf("trial %d: qualified trajectory %d has score %.6f < θ=%.6f", trial, r.Traj, r.Score, theta)
			}
		}
		for _, r := range want {
			if !gotIDs[int32(r.Traj)] {
				t.Errorf("trial %d: missing qualified trajectory %d (score %.6f ≥ θ=%.6f)", trial, r.Traj, r.Score, theta)
			}
		}
	}
}

// TestEvaluateAgreesWithExhaustive checks the single-trajectory reference
// scorer against the exhaustive scan's decomposition.
func TestEvaluateAgreesWithExhaustive(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(5, 6))
	q := f.randomQuery(rng, 3, 3, 0.5, 10)
	want, _, err := e.ExhaustiveSearchCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("exhaustive: %v", err)
	}
	for _, w := range want {
		got, err := e.Evaluate(q, w.Traj)
		if err != nil {
			t.Fatalf("Evaluate(%d): %v", w.Traj, err)
		}
		if d := got.Score - w.Score; d > scoreTol || d < -scoreTol {
			t.Errorf("Evaluate(%d) score %.12f, exhaustive %.12f", w.Traj, got.Score, w.Score)
		}
		if d := got.Spatial - w.Spatial; d > scoreTol || d < -scoreTol {
			t.Errorf("Evaluate(%d) spatial %.12f, exhaustive %.12f", w.Traj, got.Spatial, w.Spatial)
		}
		if got.Textual != w.Textual {
			t.Errorf("Evaluate(%d) textual %.12f, exhaustive %.12f", w.Traj, got.Textual, w.Textual)
		}
	}
}

func testEngineDefault(t *testing.T) (*Engine, fixture) {
	t.Helper()
	return newTestEngine(t, Options{})
}
