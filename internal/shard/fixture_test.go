package shard

import (
	"math/rand/v2"
	"sync"
	"testing"

	"uots/internal/core"
	"uots/internal/roadnet"
	"uots/internal/testworld"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// fixture is the shared BRN-like test world (testworld.BRN): big enough
// that hash partitioning spreads trajectories over every shard count the
// tests use.
type fixture struct {
	g     *roadnet.Graph
	vocab *textual.SyntheticVocab
	db    *trajdb.Store
}

var (
	fixtureOnce sync.Once
	fixtureVal  fixture
)

func testFixture(t testing.TB) fixture {
	t.Helper()
	fixtureOnce.Do(func() {
		g, vocab, db := testworld.BRN()
		fixtureVal = fixture{g: g, vocab: vocab, db: db}
	})
	return fixtureVal
}

func (f fixture) randomQuery(rng *rand.Rand, nLoc, nKw int, lambda float64, k int) core.Query {
	locs := make([]roadnet.VertexID, nLoc)
	for i := range locs {
		locs[i] = roadnet.VertexID(rng.IntN(f.g.NumVertices()))
	}
	regions := trajdb.NewRegionTopics(f.g.Bounds(), f.vocab.NumTopics())
	topic := regions.TopicOf(f.g.Point(locs[0]))
	kws := f.vocab.DrawQueryTerms(topic, nKw, 0.8, rng)
	return core.Query{Locations: locs, Keywords: kws, Lambda: lambda, K: k}
}
