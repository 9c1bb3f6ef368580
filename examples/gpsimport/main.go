// Gpsimport: the raw-data ingestion pipeline the paper assumes has already
// happened. A vehicle's noisy GPS trace is map matched onto the road
// network (HMM + Viterbi), timestamped samples are built from the fixes,
// the matched trip is inserted into a trajectory store alongside a
// synthetic corpus — and a query near the trip's route then surfaces it.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"uots"
)

func main() {
	ctx := context.Background()
	g := uots.BRNLike(0.15, 99)
	idx := uots.NewVertexIndex(g, 0)
	rng := rand.New(rand.NewPCG(3, 141))

	// Ground truth: a real drive along a shortest path across town.
	from, _ := idx.Nearest(uots.Point{X: 1.0, Y: 1.0})
	to, _ := idx.Nearest(uots.Point{X: 4.0, Y: 3.5})
	truth, dist, ok := uots.ShortestPath(g, from, to)
	if !ok {
		log.Fatal("no path between the chosen endpoints")
	}
	fmt.Printf("ground-truth drive: %d vertices, %.2f km\n", len(truth), dist)

	// The GPS receiver reports the drive with ~25 m Gaussian noise.
	fixes := make([]uots.Point, len(truth))
	for i, v := range truth {
		p := g.Point(v)
		fixes[i] = uots.Point{
			X: p.X + rng.NormFloat64()*0.025,
			Y: p.Y + rng.NormFloat64()*0.025,
		}
	}

	// Map matching recovers the vertex sequence.
	matcher := uots.NewMatcher(g, idx, uots.MatchOptions{SigmaKm: 0.025})
	matched, err := matcher.Match(fixes)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i := range matched {
		if matched[i] == truth[i] {
			correct++
		}
	}
	fmt.Printf("map matching: %d/%d fixes snapped to the true vertex (%.1f%%)\n",
		correct, len(truth), 100*float64(correct)/float64(len(truth)))

	// Build the trajectory (09:00 departure, one fix every 30 s) and
	// insert it into a store next to background trips.
	vocab := uots.GenerateVocab(6, 40, 1.0, 5)
	background, err := uots.GenerateTrajectories(g, uots.TrajGenOptions{
		Count: 3000, MeanSamples: 25, Vocab: vocab, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	builder := uots.NewStoreBuilder(g, vocab.Vocab)
	for id := 0; id < background.NumTrajectories(); id++ {
		t := background.Traj(uots.TrajID(id))
		if _, err := builder.Add(t.Samples, t.Keywords); err != nil {
			log.Fatal(err)
		}
	}
	samples := make([]uots.Sample, len(matched))
	for i, v := range matched {
		samples[i] = uots.Sample{V: v, T: 9*3600 + float64(i)*30}
	}
	imported, err := builder.Add(samples, vocab.Vocab.InternAll([]string{"t0_kw0", "t0_kw1"}))
	if err != nil {
		log.Fatal(err)
	}
	db := builder.Freeze()

	// A query along the drive's corridor with the same intent finds the
	// imported trip.
	engine, err := uots.NewEngine(db, uots.Options{})
	if err != nil {
		log.Fatal(err)
	}
	mid := truth[len(truth)/2]
	results, _, err := engine.SearchCtx(ctx, uots.Query{
		Locations: []uots.VertexID{from, mid, to},
		Keywords:  vocab.Vocab.InternAll([]string{"t0_kw0", "t0_kw1"}),
		Lambda:    0.5,
		K:         3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop matches for the corridor query (imported trip is %d):\n", imported)
	for i, r := range results {
		marker := ""
		if r.Traj == imported {
			marker = "   ← the imported GPS trip"
		}
		fmt.Printf("%d. trajectory %-5d score %.4f%s\n", i+1, r.Traj, r.Score, marker)
	}
}
