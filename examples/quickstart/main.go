// Quickstart: generate a small city and trajectory corpus, run one UOTS
// query, and print the recommended trips — the minimal end-to-end use of
// the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"uots"
)

func main() {
	ctx := context.Background()
	// A sparse Beijing-like city at 15% scale (~600 vertices).
	g := uots.BRNLike(0.15, 42)

	// A topic-structured keyword universe and 5,000 synthetic trips.
	vocab := uots.GenerateVocab(8, 50, 1.0, 7)
	db, err := uots.GenerateTrajectories(g, uots.TrajGenOptions{
		Count:       5000,
		MeanSamples: 30,
		Vocab:       vocab,
		Seed:        7,
	})
	if err != nil {
		log.Fatal(err)
	}

	engine, err := uots.NewEngine(db, uots.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// The user intends to visit two places (snapped from coordinates) and
	// describes the trip with keywords from topic 0.
	idx := uots.NewVertexIndex(g, 0)
	a, _ := idx.Nearest(uots.Point{X: 2.0, Y: 2.0})
	b, _ := idx.Nearest(uots.Point{X: 2.8, Y: 2.4})
	query := uots.Query{
		Locations: []uots.VertexID{a, b},
		Keywords:  vocab.Vocab.InternAll([]string{"t0_kw0", "t0_kw1", "t0_kw2"}),
		Lambda:    0.5, // balance spatial closeness and textual intent
		K:         3,
	}

	results, stats, err := engine.SearchCtx(ctx, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top %d of %d trajectories (%.2fms, %d visited, %d scored exactly):\n",
		len(results), db.NumTrajectories(),
		float64(stats.Elapsed.Microseconds())/1000, stats.VisitedTrajectories, stats.Candidates)
	for i, r := range results {
		fmt.Printf("%d. trajectory %-5d score %.4f  (spatial %.4f, textual %.4f)\n",
			i+1, r.Traj, r.Score, r.Spatial, r.Textual)
	}
}
