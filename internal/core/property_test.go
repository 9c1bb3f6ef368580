package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// TestExpansionMatchesExhaustiveOnRandomWorlds is the heavy property test:
// fresh tiny worlds (graph + corpus + vocabulary) per trial, random query
// shapes, exact agreement with ground truth required every time.
func TestExpansionMatchesExhaustiveOnRandomWorlds(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		seed := uint64(1000 + trial)
		rng := rand.New(rand.NewPCG(seed, seed^77))

		style := roadnet.StyleSparse
		if trial%2 == 0 {
			style = roadnet.StyleDense
		}
		g, err := roadnet.GenerateCity(roadnet.CityOptions{
			Rows: 6 + rng.IntN(10), Cols: 6 + rng.IntN(10),
			Style: style, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		vocab := textual.GenerateVocab(1+rng.IntN(5), 5+rng.IntN(30), 1.0, seed)
		db, err := trajdb.Generate(g, trajdb.GenOptions{
			Count:       1 + rng.IntN(200),
			MeanSamples: 2 + rng.IntN(25),
			Vocab:       vocab,
			Seed:        seed ^ 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(db, Options{relabelEvery: 1 + rng.IntN(100)})
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 4; qi++ {
			locs := make([]roadnet.VertexID, 1+rng.IntN(6))
			for i := range locs {
				locs[i] = roadnet.VertexID(rng.IntN(g.NumVertices()))
			}
			var kws textual.TermSet
			if rng.IntN(4) > 0 {
				kws = vocab.DrawQueryTerms(rng.IntN(vocab.NumTopics()), 1+rng.IntN(4), 0.7, rng)
			}
			q := Query{
				Locations: locs,
				Keywords:  kws,
				Lambda:    float64(rng.IntN(11)) / 10,
				K:         1 + rng.IntN(12),
			}
			want, _, err := e.ExhaustiveSearchCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := e.SearchCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			sameScores(t, "random world", got, want)
		}
	}
}

// TestExpansionDuplicateLocations pins the semantics of a query repeating
// the same place: each repetition is an independent query source and the
// score must match the exhaustive evaluation of the same repeated list.
func TestExpansionDuplicateLocations(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(301, 302))
	v := roadnet.VertexID(rng.IntN(f.g.NumVertices()))
	q := Query{
		Locations: []roadnet.VertexID{v, v, v},
		Keywords:  f.vocab.DrawQueryTerms(0, 2, 0.8, rng),
		Lambda:    0.6,
		K:         4,
	}
	want, _, err := e.ExhaustiveSearchCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := e.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, "duplicate locations", got, want)
	// With all locations identical, spatial similarity equals the kernel
	// of the single distance, so Dists entries must agree.
	for _, r := range got {
		if len(r.Dists) == 3 && (r.Dists[0] != r.Dists[1] || r.Dists[1] != r.Dists[2]) {
			t.Errorf("duplicate sources report different distances: %v", r.Dists)
		}
	}
}

// TestQueryLocationOnTrajectory pins the d=0 case: a query location lying
// on a trajectory contributes kernel(0)=1 to its spatial score.
func TestQueryLocationOnTrajectory(t *testing.T) {
	e, f := testEngineDefault(t)
	id := trajdb.TrajID(0)
	v := f.db.Traj(id).Samples[0].V
	res, err := e.Evaluate(Query{Locations: []roadnet.VertexID{v}, Lambda: 1, K: 1}, id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dists[0] != 0 {
		t.Fatalf("distance to own vertex = %g", res.Dists[0])
	}
	if math.Abs(res.Spatial-1) > 1e-12 {
		t.Fatalf("spatial = %g, want 1", res.Spatial)
	}
	// And the search must rank it with score 1 at λ=1.
	got, _, err := e.SearchCtx(context.Background(), Query{Locations: []roadnet.VertexID{v}, Lambda: 1, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0].Score-1) > 1e-12 {
		t.Fatalf("top score = %g, want 1", got[0].Score)
	}
}

// TestSingleTrajectoryStore drives the engine against a minimal store.
func TestSingleTrajectoryStore(t *testing.T) {
	f := testFixture(t)
	vocab := textual.NewVocab()
	b := trajdb.NewBuilder(f.g, vocab)
	if _, err := b.AddWithKeywords([]trajdb.Sample{{V: 5, T: 100}}, []string{"solo"}); err != nil {
		t.Fatal(err)
	}
	db := b.Freeze()
	e, err := NewEngine(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kw, _ := vocab.Lookup("solo")
	q := Query{
		Locations: []roadnet.VertexID{5, 20},
		Keywords:  textual.NewTermSet([]textual.TermID{kw}),
		Lambda:    0.5,
		K:         3,
	}
	res, _, err := e.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Traj != 0 {
		t.Fatalf("results = %+v", res)
	}
	if res[0].Textual != 1 {
		t.Errorf("textual = %g, want 1", res[0].Textual)
	}
	// The threshold variant agrees.
	th, _, err := e.SearchThresholdCtx(context.Background(), q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if (len(th) == 1) != (res[0].Score >= 0.3) {
		t.Errorf("threshold variant disagreement: score %g, qualified %d", res[0].Score, len(th))
	}
}

// TestRelabelEveryOne runs the most aggressive rescan cadence, which must
// not change results, only cost.
func TestRelabelEveryOne(t *testing.T) {
	f := testFixture(t)
	aggressive, err := NewEngine(f.db, Options{relabelEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := NewEngine(f.db, Options{relabelEvery: 5000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(401, 402))
	for trial := 0; trial < 5; trial++ {
		q := f.randomQuery(rng, 3, 3, 0.5, 5)
		a, _, err := aggressive.SearchCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := lazy.SearchCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		sameScores(t, "relabel cadence", a, b)
	}
}

// TestThresholdOneReturnsOnlyPerfectMatches pins θ=1: only trajectories
// with both spatial and textual similarity 1 qualify.
func TestThresholdOneReturnsOnlyPerfectMatches(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(501, 502))
	q := f.randomQuery(rng, 2, 2, 0.5, 1)
	res, _, err := e.SearchThresholdCtx(context.Background(), q, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Score < 1-scoreTol {
			t.Errorf("θ=1 returned score %g", r.Score)
		}
	}
}

// TestMonotoneK: growing k only appends results; the prefix is stable.
func TestMonotoneK(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(601, 602))
	q := f.randomQuery(rng, 3, 3, 0.5, 1)
	var prev []Result
	for _, k := range []int{1, 3, 7, 15} {
		q.K = k
		res, _, err := e.SearchCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range prev {
			if math.Abs(prev[i].Score-res[i].Score) > scoreTol {
				t.Fatalf("k=%d changed rank-%d score: %g vs %g", k, i, prev[i].Score, res[i].Score)
			}
		}
		prev = res
	}
}

// TestThresholdMonotone: lowering θ only grows the qualified set.
func TestThresholdMonotone(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(701, 702))
	q := f.randomQuery(rng, 2, 3, 0.4, 1)
	prevCount := 0
	for _, theta := range []float64{0.9, 0.7, 0.5, 0.3} {
		res, _, err := e.SearchThresholdCtx(context.Background(), q, theta)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) < prevCount {
			t.Fatalf("θ=%g returned %d < previous %d", theta, len(res), prevCount)
		}
		prevCount = len(res)
	}
}

// TestDensifiedCorpusImprovesSpatialScores pins the semantics of
// trajdb.Densify: distances to a superset of route points can only
// shrink, so every trajectory's spatial similarity is at least its
// undensified value.
func TestDensifiedCorpusImprovesSpatialScores(t *testing.T) {
	f := testFixture(t)
	dense, err := trajdb.Densify(f.db)
	if err != nil {
		t.Fatal(err)
	}
	sparseEngine, err := NewEngine(f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	denseEngine, err := NewEngine(dense, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(901, 902))
	q := f.randomQuery(rng, 3, 0, 1, 1)
	for trial := 0; trial < 20; trial++ {
		id := trajdb.TrajID(rng.IntN(f.db.NumTrajectories()))
		sparse, err := sparseEngine.Evaluate(q, id)
		if err != nil {
			t.Fatal(err)
		}
		denseRes, err := denseEngine.Evaluate(q, id)
		if err != nil {
			t.Fatal(err)
		}
		if denseRes.Spatial < sparse.Spatial-1e-9 {
			t.Fatalf("traj %d: densified spatial %g below sparse %g", id, denseRes.Spatial, sparse.Spatial)
		}
		for i := range sparse.Dists {
			if denseRes.Dists[i] > sparse.Dists[i]+1e-9 {
				t.Fatalf("traj %d: densified distance %g exceeds sparse %g", id, denseRes.Dists[i], sparse.Dists[i])
			}
		}
	}
}
