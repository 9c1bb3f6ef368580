package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"uots/internal/trajdb"
)

func int32ID(i int) trajdb.TrajID { return trajdb.TrajID(i) }

func TestDiversifiedSearchValidation(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(801, 802))
	q := f.randomQuery(rng, 2, 2, 0.5, 3)
	for _, mu := range []float64{-0.1, 1.0, 1.5} {
		if _, _, err := e.DiversifiedSearchCtx(context.Background(), q, DiversifyOptions{Mu: mu}); !errors.Is(err, ErrBadDiversity) {
			t.Errorf("mu=%g accepted", mu)
		}
	}
}

func TestDiversifiedTopPickIsPlainTop(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(811, 812))
	for trial := 0; trial < 5; trial++ {
		q := f.randomQuery(rng, 2, 3, 0.5, 5)
		plain, _, err := e.SearchCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		div, _, err := e.DiversifiedSearchCtx(context.Background(), q, DiversifyOptions{Mu: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		if len(div) != len(plain) {
			t.Fatalf("got %d diversified results, want %d", len(div), len(plain))
		}
		// The greedy MMR always starts with the best-scoring candidate.
		if div[0].Score != plain[0].Score {
			t.Errorf("first pick score %g != plain top %g", div[0].Score, plain[0].Score)
		}
	}
}

func TestDiversifiedReducesOverlap(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(821, 822))
	totalPlain, totalDiv := 0.0, 0.0
	trials := 0
	for trial := 0; trial < 10; trial++ {
		q := f.randomQuery(rng, 2, 3, 0.7, 5)
		plain, _, err := e.SearchCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		div, _, err := e.DiversifiedSearchCtx(context.Background(), q, DiversifyOptions{Mu: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) < 2 || len(div) < 2 {
			continue
		}
		totalPlain += meanPairwiseOverlap(e, plain)
		totalDiv += meanPairwiseOverlap(e, div)
		trials++
	}
	if trials == 0 {
		t.Skip("no multi-result queries in fixture")
	}
	if totalDiv > totalPlain {
		t.Errorf("diversified mean overlap %.4f should not exceed plain %.4f",
			totalDiv/float64(trials), totalPlain/float64(trials))
	}
}

func meanPairwiseOverlap(e *Engine, rs []Result) float64 {
	var sum float64
	var n int
	for i := 0; i < len(rs); i++ {
		for j := i + 1; j < len(rs); j++ {
			sum += e.routeOverlap(rs[i].Traj, rs[j].Traj)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestRouteOverlapProperties(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(831, 832))
	for trial := 0; trial < 50; trial++ {
		a := rng.IntN(f.db.NumTrajectories())
		b := rng.IntN(f.db.NumTrajectories())
		oab := e.routeOverlap(int32ID(a), int32ID(b))
		oba := e.routeOverlap(int32ID(b), int32ID(a))
		if oab != oba {
			t.Fatalf("overlap not symmetric: %g vs %g", oab, oba)
		}
		if oab < 0 || oab > 1 {
			t.Fatalf("overlap %g out of range", oab)
		}
		if a == b && oab != 1 {
			t.Fatalf("self overlap = %g", oab)
		}
	}
}
