package core

import (
	"math/rand/v2"
	"sync"
	"testing"

	"uots/internal/roadnet"
	"uots/internal/testworld"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// fixture bundles a small but non-trivial world shared by the core tests:
// a sparse city, a keyword universe, and a trajectory corpus.
type fixture struct {
	g     *roadnet.Graph
	vocab *textual.SyntheticVocab
	db    *trajdb.Store
}

var (
	fixtureOnce sync.Once
	fixtureVal  fixture
)

// testFixture returns the shared fixture, building it on first use.
func testFixture(t testing.TB) fixture {
	t.Helper()
	fixtureOnce.Do(func() {
		g, vocab, db := testworld.BRN()
		fixtureVal = fixture{g: g, vocab: vocab, db: db}
	})
	return fixtureVal
}

// randomQuery draws a query with n locations and m keywords, keyword topic
// correlated with the first location's region (mirroring the workload
// generator).
func (f fixture) randomQuery(rng *rand.Rand, nLoc, nKw int, lambda float64, k int) Query {
	locs := make([]roadnet.VertexID, nLoc)
	for i := range locs {
		locs[i] = roadnet.VertexID(rng.IntN(f.g.NumVertices()))
	}
	regions := trajdb.NewRegionTopics(f.g.Bounds(), f.vocab.NumTopics())
	topic := regions.TopicOf(f.g.Point(locs[0]))
	kws := f.vocab.DrawQueryTerms(topic, nKw, 0.8, rng)
	return Query{Locations: locs, Keywords: kws, Lambda: lambda, K: k}
}

// newTestEngine builds an engine over the fixture with options.
func newTestEngine(t *testing.T, opts Options) (*Engine, fixture) {
	t.Helper()
	f := testFixture(t)
	e, err := NewEngine(f.db, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e, f
}

func testEngineDefault(t *testing.T) (*Engine, fixture) {
	t.Helper()
	return newTestEngine(t, Options{})
}

// scoreTol bounds the float error of the score invariants the core tests
// check on one engine's own answers (range, sort order, the λ
// extremes). Comparisons against the exhaustive oracle use the one
// comparator of package difftest (oracle_test.go here, and the shard
// package's differential harness across backends).
const scoreTol = 1e-9
