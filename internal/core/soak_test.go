package core

import (
	"context"
	"math/rand/v2"
	"os"
	"testing"

	"uots/internal/index"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// TestSoakWideRandomWorlds is a one-off wide soak (enabled by UOTS_SOAK).
func TestSoakWideRandomWorlds(t *testing.T) {
	if os.Getenv("UOTS_SOAK") == "" {
		t.Skip("set UOTS_SOAK=1 to run the wide soak")
	}
	for trial := 0; trial < 120; trial++ {
		seed := uint64(50000 + trial)
		rng := rand.New(rand.NewPCG(seed, seed^99))
		style := roadnet.StyleSparse
		if trial%2 == 0 {
			style = roadnet.StyleDense
		}
		g, err := roadnet.GenerateCity(roadnet.CityOptions{
			Rows: 5 + rng.IntN(14), Cols: 5 + rng.IntN(14), Style: style, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		vocab := textual.GenerateVocab(1+rng.IntN(6), 4+rng.IntN(40), 1.0, seed)
		db, err := trajdb.Generate(g, trajdb.GenOptions{
			Count: 1 + rng.IntN(300), MeanSamples: 2 + rng.IntN(30),
			Vocab: vocab, Seed: seed ^ 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		var tb *index.TrajBounds
		if trial%2 == 1 {
			tb = index.NewTrajBounds(db, roadnet.NewLandmarks(g, 1+rng.IntN(6), 0))
		}
		e, err := NewEngine(db, Options{
			Scheduling:        Scheduling(rng.IntN(2)),
			relabelEvery:      1 + rng.IntN(200),
			DisableTextProbe:  rng.IntN(3) == 0,
			probeRadiusFactor: 0.5 + rng.Float64()*6,
			DistScale:         0.2 + rng.Float64()*3,
			Index:             tb,
		})
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 3; qi++ {
			locs := make([]roadnet.VertexID, 1+rng.IntN(7))
			for i := range locs {
				locs[i] = roadnet.VertexID(rng.IntN(g.NumVertices()))
			}
			var kws textual.TermSet
			if rng.IntN(5) > 0 {
				kws = vocab.DrawQueryTerms(rng.IntN(vocab.NumTopics()), 1+rng.IntN(5), 0.6, rng)
			}
			q := Query{Locations: locs, Keywords: kws, Lambda: float64(rng.IntN(21)) / 20, K: 1 + rng.IntN(15)}
			want, _, err := e.ExhaustiveSearchCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := e.SearchCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			sameScores(t, "soak topk", got, want)
			theta := 0.2 + 0.75*rng.Float64()
			wantT, _, err := e.ExhaustiveThresholdCtx(context.Background(), q, theta)
			if err != nil {
				t.Fatal(err)
			}
			gotT, _, err := e.SearchThresholdCtx(context.Background(), q, theta)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotT) != len(wantT) {
				t.Fatalf("trial %d: threshold sizes %d vs %d (θ=%.3f λ=%.2f)", trial, len(gotT), len(wantT), theta, q.Lambda)
			}
		}
	}
}
