// Package uots is a Go implementation of user-oriented trajectory search
// for trip recommendation (UOTS, after Shang et al., EDBT 2012): given a
// database of map-matched, keyword-annotated trajectories in a road
// network, a query consisting of intended places and travel-intention
// keywords returns the trajectories that best match both the spatial and
// the textual intent, combined by a preference parameter λ.
//
// The package is a facade over the implementation packages:
//
//   - a road-network substrate (graphs, Dijkstra, bidirectional and
//     goal-directed search, incremental network expansion,
//     nearest-vertex indexing, synthetic city generation),
//   - a trajectory store with vertex and keyword inverted indexes and a
//     synthetic trip generator,
//   - a textual substrate (vocabulary, keyword similarity, inverted index),
//   - an HMM map matcher for raw GPS input,
//   - the UOTS engine: the expansion search with upper-bound pruning,
//     heuristic query-source scheduling, adaptive probes and early
//     termination, plus Exhaustive and TextFirst baselines and a
//     parallel batch engine.
//
// # Quickstart
//
//	g := uots.BRNLike(0.2, 42)                   // or build with uots.GraphBuilder
//	vocab := uots.GenerateVocab(8, 60, 1, 7)     // or uots.NewVocab + Intern
//	db, _ := uots.GenerateTrajectories(g, uots.TrajGenOptions{
//		Count: 10000, Vocab: vocab, Seed: 7,
//	})
//	engine, _ := uots.NewEngine(db, uots.Options{})
//	res, _, _ := engine.SearchCtx(context.Background(), uots.Query{
//		Locations: []uots.VertexID{120, 3456},
//		Keywords:  vocab.Vocab.InternAll([]string{"t0_kw1", "t0_kw2"}),
//		Lambda:    0.5,
//		K:         5,
//	})
//
// See the examples directory for runnable end-to-end programs and
// DESIGN.md / EXPERIMENTS.md for the reproduction notes.
package uots
