package uots_test

import (
	"context"
	"fmt"
	"log"

	"uots"
)

// buildExampleWorld assembles a small deterministic world by hand: a 3×3
// grid city and three tagged trips.
func buildExampleWorld() (*uots.Graph, *uots.Store, *uots.Vocab) {
	var gb uots.GraphBuilder
	// Vertices 0..8 on a 3×3 unit grid.
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			gb.AddVertex(uots.Point{X: float64(x), Y: float64(y)})
		}
	}
	id := func(x, y int) uots.VertexID { return uots.VertexID(y*3 + x) }
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			if x+1 < 3 {
				if err := gb.AddEdge(id(x, y), id(x+1, y), 1); err != nil {
					log.Fatal(err)
				}
			}
			if y+1 < 3 {
				if err := gb.AddEdge(id(x, y), id(x, y+1), 1); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	g, err := gb.Build()
	if err != nil {
		log.Fatal(err)
	}

	vocab := uots.NewVocab()
	sb := uots.NewStoreBuilder(g, vocab)
	addTrip := func(verts []uots.VertexID, depart float64, tags ...string) {
		samples := make([]uots.Sample, len(verts))
		for i, v := range verts {
			samples[i] = uots.Sample{V: v, T: depart + float64(i)*60}
		}
		if _, err := sb.AddWithKeywords(samples, tags); err != nil {
			log.Fatal(err)
		}
	}
	addTrip([]uots.VertexID{0, 1, 2, 5}, 9*3600, "market", "food")
	addTrip([]uots.VertexID{6, 7, 8}, 10*3600, "gallery", "river")
	addTrip([]uots.VertexID{0, 3, 6, 7}, 11*3600, "market", "gallery")
	return g, sb.Freeze(), vocab
}

// ExampleEngine_SearchCtx shows the core call: intended places plus
// intention keywords, linearly combined by λ.
func ExampleEngine_SearchCtx() {
	_, db, vocab := buildExampleWorld()
	engine, err := uots.NewEngine(db, uots.Options{})
	if err != nil {
		log.Fatal(err)
	}
	results, _, err := engine.SearchCtx(context.Background(), uots.Query{
		Locations: []uots.VertexID{0, 6}, // bottom-left and top-left corners
		Keywords:  vocab.InternAll([]string{"market", "gallery"}),
		Lambda:    0.5,
		K:         2,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("%d. trajectory %d score %.3f (spatial %.3f, textual %.3f)\n",
			i+1, r.Traj, r.Score, r.Spatial, r.Textual)
	}
	// Output:
	// 1. trajectory 2 score 1.000 (spatial 1.000, textual 1.000)
	// 2. trajectory 0 score 0.451 (spatial 0.568, textual 0.333)
}

// ExampleEngine_SearchWindowedCtx shows the departure-time filter extension.
func ExampleEngine_SearchWindowedCtx() {
	_, db, vocab := buildExampleWorld()
	engine, err := uots.NewEngine(db, uots.Options{})
	if err != nil {
		log.Fatal(err)
	}
	results, _, err := engine.SearchWindowedCtx(context.Background(), uots.Query{
		Locations: []uots.VertexID{0},
		Keywords:  vocab.InternAll([]string{"market"}),
		Lambda:    0.5,
		K:         1,
	}, uots.TimeWindow{From: 8 * 3600, To: 10 * 3600}) // departures 08:00–10:00
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trajectory %d departs at %02.0f:00\n",
		results[0].Traj, db.Traj(results[0].Traj).Start()/3600)
	// Output:
	// trajectory 0 departs at 09:00
}
