// Package testworld builds the synthetic corpus that the core and shard
// test suites share. It is test support: only _test.go files import it,
// and it imports nothing above trajdb, so the core package's own tests
// can use it.
package testworld

import (
	"math/rand/v2"

	"uots/internal/geo"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// BRN builds the BRN-like test world: a sparse city of about 20×20
// blocks, six keyword topics of forty terms, and 400 trajectories of 20
// samples on average. Every call builds a fresh, identical copy.
func BRN() (*roadnet.Graph, *textual.SyntheticVocab, *trajdb.Store) {
	g := roadnet.BRNLike(0.12, 7)
	vocab := textual.GenerateVocab(6, 40, 1.0, 11)
	db, err := trajdb.Generate(g, trajdb.GenOptions{
		Count:       400,
		MeanSamples: 20,
		Vocab:       vocab,
		Seed:        13,
	})
	if err != nil {
		panic("testworld: " + err.Error())
	}
	return g, vocab, db
}

// Ties returns db with n copies of its trips, drawn with seed, appended
// under fresh IDs with the same samples and keywords: a copy ties its
// original bit for bit in every score, so ties straddle rank k and the
// smaller ID must win them.
func Ties(db *trajdb.Store, n int, seed uint64) *trajdb.Store {
	d := trajdb.NewDynamicFromStore(db)
	rng := rand.New(rand.NewPCG(seed, 0))
	_, err := d.AddGroup(n, func(int) ([]trajdb.Sample, []string) {
		src := trajdb.TrajID(rng.IntN(db.NumTrajectories()))
		var kws []string
		for _, id := range db.Keywords(src) {
			name, _ := db.Vocab().Term(id)
			kws = append(kws, name)
		}
		return db.Traj(src).Samples, kws
	})
	if err != nil {
		panic("testworld: " + err.Error())
	}
	snap, _ := d.Snapshot()
	return snap
}

// UnitGrid builds an n×n grid whose every edge is 0.25 km, exact in
// binary: mirror-image vertices lie at bit-equal distances, so distinct
// trips tie bit for bit too.
func UnitGrid(n int) *roadnet.Graph {
	var b roadnet.Builder
	for v := 0; v < n*n; v++ {
		b.AddVertex(geo.Point{X: float64(v%n) * 0.25, Y: float64(v/n) * 0.25})
	}
	for v := 0; v < n*n; v++ {
		for _, u := range []int{v + 1, v + n} {
			if u < n*n && (u == v+n || u%n != 0) {
				if err := b.AddEdge(roadnet.VertexID(v), roadnet.VertexID(u), 0.25); err != nil {
					panic("testworld: " + err.Error())
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic("testworld: " + err.Error())
	}
	return g
}
