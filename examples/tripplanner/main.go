// Tripplanner: the paper's motivating scenario. A tourist plans a day in
// an unfamiliar city: they know roughly where they want to be (the old
// town and the riverside) and what they want from the day ("market",
// "food", "gallery"). Previous visitors have shared their keyword-tagged
// trips. The UOTS query recommends the shared trips that best match both
// the places and the intent — and sweeping λ shows how the preference
// parameter trades the two off.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"uots"
)

// A shared trip a previous visitor uploaded: where it went (waypoints to
// route through) and how they tagged it.
type sharedTrip struct {
	name      string
	waypoints []uots.Point
	tags      []string
	departure float64 // seconds of day
}

func main() {
	ctx := context.Background()
	// A dense downtown grid, 3 km × 3 km.
	g, err := uots.GenerateCity(uots.CityOptions{
		Rows: 13, Cols: 13, Spacing: 0.25, Style: uots.StyleDense, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	idx := uots.NewVertexIndex(g, 0)

	trips := []sharedTrip{
		{"old-town food crawl", []uots.Point{{X: 0.5, Y: 0.5}, {X: 1.0, Y: 1.0}, {X: 1.5, Y: 0.8}}, []string{"market", "food", "street-food", "spices"}, hm(10, 30)},
		{"riverside gallery walk", []uots.Point{{X: 1.2, Y: 2.5}, {X: 2.0, Y: 2.8}, {X: 2.8, Y: 2.6}}, []string{"gallery", "art", "river", "coffee"}, hm(11, 0)},
		{"market-to-river day", []uots.Point{{X: 0.6, Y: 0.6}, {X: 1.5, Y: 1.6}, {X: 2.2, Y: 2.6}}, []string{"market", "food", "river", "gallery"}, hm(9, 45)},
		{"shopping loop", []uots.Point{{X: 2.5, Y: 0.5}, {X: 2.9, Y: 1.2}, {X: 2.4, Y: 1.5}}, []string{"mall", "fashion", "shopping"}, hm(13, 15)},
		{"night food tour", []uots.Point{{X: 0.8, Y: 0.4}, {X: 1.2, Y: 0.9}}, []string{"food", "bar", "live-music"}, hm(19, 30)},
		{"museum sprint", []uots.Point{{X: 1.8, Y: 1.8}, {X: 2.1, Y: 2.2}}, []string{"museum", "history", "art"}, hm(14, 0)},
	}

	vocab := uots.NewVocab()
	builder := uots.NewStoreBuilder(g, vocab)
	rng := rand.New(rand.NewPCG(5, 8))
	names := make(map[uots.TrajID]string)
	for _, trip := range trips {
		id, err := builder.AddWithKeywords(routeTrip(g, idx, trip, rng), trip.tags)
		if err != nil {
			log.Fatalf("adding %q: %v", trip.name, err)
		}
		names[id] = trip.name
	}
	db := builder.Freeze()

	engine, err := uots.NewEngine(db, uots.Options{})
	if err != nil {
		log.Fatal(err)
	}

	oldTown, _ := idx.Nearest(uots.Point{X: 0.7, Y: 0.7})
	riverside, _ := idx.Nearest(uots.Point{X: 2.2, Y: 2.7})
	query := uots.Query{
		Locations: []uots.VertexID{oldTown, riverside},
		Keywords:  vocab.InternAll(uots.Tokenize("market food gallery")),
		K:         3,
	}

	fmt.Println("visitor intent: old town + riverside, tags: market food gallery")
	for _, lambda := range []float64{0.2, 0.5, 0.8} {
		query.Lambda = lambda
		results, _, err := engine.SearchCtx(ctx, query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nλ = %.1f (%s):\n", lambda, describe(lambda))
		for i, r := range results {
			fmt.Printf("  %d. %-24s score %.3f (spatial %.3f, textual %.3f)\n",
				i+1, names[r.Traj], r.Score, r.Spatial, r.Textual)
		}
	}

	// The extension: only recommend trips departing in the morning.
	query.Lambda = 0.5
	results, _, err := engine.SearchWindowedCtx(ctx, query, uots.TimeWindow{From: hm(8, 0), To: hm(12, 0)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndeparting 08:00–12:00 only:")
	for i, r := range results {
		dep := db.Traj(r.Traj).Start()
		fmt.Printf("  %d. %-24s departs %02d:%02d, score %.3f\n",
			i+1, names[r.Traj], int(dep)/3600, int(dep)%3600/60, r.Score)
	}
}

// routeTrip turns waypoints into a map-matched sample sequence: snap each
// waypoint, connect with shortest paths, and timestamp at ~20 km/h.
func routeTrip(g *uots.Graph, idx *uots.VertexIndex, trip sharedTrip, rng *rand.Rand) []uots.Sample {
	var verts []uots.VertexID
	for i, wp := range trip.waypoints {
		v, _ := idx.Nearest(wp)
		if i == 0 {
			verts = append(verts, v)
			continue
		}
		path, _, ok := uots.ShortestPath(g, verts[len(verts)-1], v)
		if !ok {
			continue
		}
		verts = append(verts, path[1:]...)
	}
	samples := make([]uots.Sample, len(verts))
	t := trip.departure
	for i, v := range verts {
		if i > 0 {
			// ~20 km/h with some dwell time at each stop.
			t += 45 + rng.Float64()*30
		}
		samples[i] = uots.Sample{V: v, T: t}
	}
	return samples
}

func describe(lambda float64) string {
	switch {
	case lambda < 0.4:
		return "intent first"
	case lambda > 0.6:
		return "places first"
	default:
		return "balanced"
	}
}

func hm(h, m int) float64 { return float64(h*3600 + m*60) }
