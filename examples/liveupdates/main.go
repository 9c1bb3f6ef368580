// Liveupdates: an operational trajectory service. Shared trips arrive and
// expire continuously; the DynamicStore absorbs mutations while queries
// run against consistent dense snapshots, and the diversified search keeps
// the recommendations from being k copies of the same route.
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
	g := uots.BRNLike(0.15, 21)
	vocab := uots.GenerateVocab(6, 40, 1.0, 22)

	// Seed the service with an initial corpus.
	seed, err := uots.GenerateTrajectories(g, uots.TrajGenOptions{
		Count: 2000, MeanSamples: 25, Vocab: vocab, Seed: 23,
	})
	if err != nil {
		log.Fatal(err)
	}
	dyn := uots.NewDynamicStore(g, vocab.Vocab)
	var handles []uots.ExternalID
	for id := 0; id < seed.NumTrajectories(); id++ {
		t := seed.Traj(uots.TrajID(id))
		h, err := dyn.Add(t.Samples, t.Keywords)
		if err != nil {
			log.Fatal(err)
		}
		handles = append(handles, h)
	}

	idx := uots.NewVertexIndex(g, 0)
	anchor, _ := idx.Nearest(uots.Point{X: 2.5, Y: 2.5})
	near := idx.Within(g.Point(anchor), 1.5)
	query := uots.Query{
		Locations: []uots.VertexID{anchor, near[len(near)/2]},
		Keywords:  vocab.Vocab.InternAll([]string{"t0_kw0", "t0_kw1"}),
		Lambda:    0.6,
		K:         3,
	}

	rng := rand.New(rand.NewPCG(31, 32))
	for epoch := 0; epoch < 3; epoch++ {
		// Mutation burst: 100 new trips arrive, 150 old ones expire.
		fresh, err := uots.GenerateTrajectories(g, uots.TrajGenOptions{
			Count: 100, MeanSamples: 25, Vocab: vocab, Seed: uint64(100 + epoch),
		})
		if err != nil {
			log.Fatal(err)
		}
		for id := 0; id < fresh.NumTrajectories(); id++ {
			t := fresh.Traj(uots.TrajID(id))
			h, err := dyn.Add(t.Samples, t.Keywords)
			if err != nil {
				log.Fatal(err)
			}
			handles = append(handles, h)
		}
		for i := 0; i < 150 && len(handles) > 0; i++ {
			j := rng.IntN(len(handles))
			dyn.Remove(handles[j])
			handles[j] = handles[len(handles)-1]
			handles = handles[:len(handles)-1]
		}

		// Queries see a consistent snapshot of the current epoch.
		snap, mapping := dyn.Snapshot()
		engine, err := uots.NewEngine(snap, uots.Options{})
		if err != nil {
			log.Fatal(err)
		}
		plain, _, err := engine.SearchCtx(ctx, query)
		if err != nil {
			log.Fatal(err)
		}
		diverse, _, err := engine.DiversifiedSearchCtx(ctx, query, uots.DiversifyOptions{Mu: 0.5})
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("epoch %d: %d live trips\n", epoch, dyn.Len())
		fmt.Printf("  plain top-3:      ")
		printRow(plain, mapping)
		fmt.Printf("  diversified top-3:")
		printRow(diverse, mapping)
	}
}

func printRow(rs []uots.Result, mapping []uots.ExternalID) {
	for _, r := range rs {
		fmt.Printf("  trip#%-5d (%.3f)", mapping[r.Traj], r.Score)
	}
	fmt.Println()
}
