package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"uots/internal/core"
	"uots/internal/difftest"
	"uots/internal/index"
	"uots/internal/roadnet"
	"uots/internal/testworld"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// The engine against the exhaustive oracle: each test is one or more
// rows — an engine configuration and the requests drawn for it — and
// every answer goes through the differential harness's oracle and
// comparator (package difftest). The shard package's TestDifferential
// runs the same check over every backend, world shape and variant; the
// rows here pin the engine's own entry points, query shapes and the two
// unexported expansion policies, which the harness cannot reach.

type world struct {
	g     *roadnet.Graph
	vocab *textual.SyntheticVocab
	db    *trajdb.Store
}

var (
	brnOnce  sync.Once
	brnWorld world
)

// brn returns the BRN-like world, built once.
func brn() world {
	brnOnce.Do(func() {
		brnWorld.g, brnWorld.vocab, brnWorld.db = testworld.BRN()
	})
	return brnWorld
}

// query draws nLoc places and nKw keywords of the first place's topic
// region.
func (w world) query(rng *rand.Rand, nLoc, nKw int, lambda float64, k int) core.Query {
	locs := make([]roadnet.VertexID, nLoc)
	for i := range locs {
		locs[i] = roadnet.VertexID(rng.IntN(w.g.NumVertices()))
	}
	topic := trajdb.NewRegionTopics(w.g.Bounds(), w.vocab.NumTopics()).TopicOf(w.g.Point(locs[0]))
	return core.Query{Locations: locs, Keywords: w.vocab.DrawQueryTerms(topic, nKw, 0.8, rng), Lambda: lambda, K: k}
}

// row answers trials requests drawn from seed over w (the BRN-like
// world if zero) on an engine with opts, or on its TextFirst baseline,
// checks each answer against the oracle, and hands it to also, if set.
type row struct {
	w         world
	opts      core.Options
	textFirst bool
	seed      uint64
	trials    int
	draw      func(w world, rng *rand.Rand, trial int) core.Request
	also      func(t *testing.T, req core.Request, got []core.Result)
}

func (r row) check(t *testing.T) {
	t.Helper()
	if r.w.db == nil {
		r.w = brn()
	}
	ctx := context.Background()
	oracle, err := core.NewEngine(r.w.db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(r.w.db, r.opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(r.seed, r.seed+1))
	for trial := range max(r.trials, 1) {
		req := r.draw(r.w, rng, trial)
		label := fmt.Sprintf("seed %d trial %d (%s λ=%g k=%d)", r.seed, trial, req.Variant(), req.Query.Lambda, req.Query.K)
		var got []core.Result
		if r.textFirst {
			got, _, err = e.TextFirstSearchCtx(ctx, req.Query)
		} else {
			got, _, err = req.Run(ctx, e)
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ranking, k, err := difftest.Expect(ctx, oracle, r.w.db, req)
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		if err := difftest.Mismatch(got, ranking, k); err != nil {
			t.Errorf("%s: %v", label, err)
		}
		if r.also != nil {
			r.also(t, req, got)
		}
	}
}

// topK draws a plain top-k request: one to four places, up to four
// keywords, λ from lambdas, k from one to maxK.
func topK(lambdas []float64, maxK int) func(world, *rand.Rand, int) core.Request {
	return func(w world, rng *rand.Rand, _ int) core.Request {
		return core.Request{Query: w.query(rng, 1+rng.IntN(4), rng.IntN(5), lambdas[rng.IntN(len(lambdas))], 1+rng.IntN(maxK))}
	}
}

// TestExpansionMatchesExhaustiveTopK is the central correctness test:
// over a grid of λ, |O|, |ψ| and k, the expansion search must return the
// exhaustive top k for every scheduling strategy.
func TestExpansionMatchesExhaustiveTopK(t *testing.T) {
	for i, opts := range []core.Options{
		{Scheduling: core.ScheduleHeuristic},
		{Scheduling: core.ScheduleRoundRobin},
	} {
		row{opts: opts, seed: uint64(100 + i), trials: 12, draw: topK([]float64{0, 0.1, 0.3, 0.5, 0.9, 1}, 8)}.check(t)
	}
}

// TestRelabelEveryOne varies the three unexported expansion policies —
// the rescan cadence relabelEvery, down to every step, its amortization
// rescanDivisor and the probe radius floor probeRadiusFactor — which
// must change work, never answers. The first six rows rescan exactly
// every relabelEvery steps (amortization off); the last three take a
// divisor small enough that, on this 400-trip world, a large active set
// stretches the gap between rescans past relabelEvery.
func TestRelabelEveryOne(t *testing.T) {
	for i, p := range []struct {
		relabelEvery, rescanDivisor int
		probeRadiusFactor           float64
	}{{1, -1, 0}, {7, -1, 0}, {5000, -1, 0}, {0, -1, 0.5}, {0, -1, 6}, {1, -1, 0.5}, {1, 1, 0}, {4, 2, 0}, {16, 1, 0.5}} {
		row{opts: core.WithPolicies(core.Options{}, p.relabelEvery, p.rescanDivisor, p.probeRadiusFactor), seed: uint64(401 + i), trials: 20,
			draw: topK([]float64{0.1, 0.3, 0.5, 0.7, 0.9}, 10)}.check(t)
	}
}

// TestTiesAtTheBar holds the engine to the oracle where scores tie bit
// for bit: on a unit-weight grid mirror-image trips lie at equal
// distances, and duplicated trips tie their originals. With a rescan
// after every step a partly scanned candidate can meet a bar equal to
// its exact score; every prune is strict, so it must survive and win its
// tie by ID. Half the queries repeat a location. The first row asks one
// to four places; the second six to nine, where distinct scan masks
// share a slot of rescan's per-mask bound table, so a lookup that does
// not check the slot's mask drops an answer. The third asks one to four
// places order-aware, where the bar is the k-th ordered score and a trip
// whose unordered score equals it must still be scored under the order.
// The fourth runs the TextFirst baseline, whose two scan stops test a
// spatially perfect score against the bar: at λ = 1 every trip through
// a lone place scores 1, so a stop at the bar drops ties of smaller ID.
// The fifth asks θ = 1 with two to five places on one trip (onOneTrip),
// so a probe meets a bound equal to its bar.
func TestTiesAtTheBar(t *testing.T) {
	g := testworld.UnitGrid(12)
	vocab := textual.GenerateVocab(2, 3, 1.0, 5)
	db, err := trajdb.Generate(g, trajdb.GenOptions{Count: 150, MeanSamples: 4, Vocab: vocab, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	w := world{g: g, vocab: vocab, db: testworld.Ties(db, 30, 7)}
	lambdas := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1}
	for _, r := range []struct {
		seed                         uint64
		trials, places               int // places: the fewest query locations; up to three more
		orderAware, textFirst, probe bool
	}{{907, 300, 1, false, false, false}, {1018, 155, 6, false, false, false}, {1129, 200, 1, true, false, false},
		{1231, 200, 1, false, true, false}, {1337, 40, 2, false, false, true}} {
		probeRadiusFactor := 0.0 // the default
		if r.probe {
			probeRadiusFactor = 1e-18 // a floor kernel that rounds to 1: radius 0
		}
		row{w: w, opts: core.WithPolicies(core.Options{}, 1, -1, probeRadiusFactor), textFirst: r.textFirst, seed: r.seed, trials: r.trials,
			draw: func(w world, rng *rand.Rand, _ int) core.Request {
				q := w.query(rng, r.places+rng.IntN(4), rng.IntN(5), lambdas[rng.IntN(len(lambdas))], 1+rng.IntN(10))
				if r.probe {
					return onOneTrip(w, rng, q)
				}
				if len(q.Locations) > 1 && rng.IntN(2) == 0 {
					q.Locations[1] = q.Locations[0]
				}
				return core.Request{Query: q, OrderAware: r.orderAware}
			}}.check(t)
	}
}

// onOneTrip turns q into a threshold request at θ = 1 and λ = 1 whose
// places all lie on one trip: every trip through all of them scores 1
// exactly, and so does every bound the search takes on it while the
// runs it waits on are still at radius 0. The first scan meets the
// trip from one place; the rescan after it probes the trip (the row's
// probe floor is at radius 0), and the probe's first bound equals the
// bar.
func onOneTrip(w world, rng *rand.Rand, q core.Query) core.Request {
	samples := w.db.Traj(trajdb.TrajID(rng.IntN(w.db.NumTrajectories()))).Samples
	for i := range q.Locations {
		q.Locations[i] = samples[rng.IntN(len(samples))].V
	}
	q.Lambda, q.Keywords = 1, nil
	theta := 1.0
	return core.Request{Query: q, Theta: &theta}
}

// TestTextFirstMatchesExhaustive validates the second baseline against
// the same ground truth.
func TestTextFirstMatchesExhaustive(t *testing.T) {
	row{textFirst: true, seed: 42, trials: 10, draw: topK([]float64{0, 0.2, 0.5, 0.8, 1}, 5)}.check(t)
}

// TestTextFirstWithLandmarksMatchesExhaustive runs the TextFirst
// baseline on an engine built the way callers of the deleted landmark
// index still build one, with Options.Index set from landmarks; the
// option is ignored and must change no answer. Its visits resume one
// goal search per request, so it asks up to eight trips of one request.
func TestTextFirstWithLandmarksMatchesExhaustive(t *testing.T) {
	w := brn()
	idx := index.NewTrajBounds(w.db, roadnet.NewLandmarks(w.g, 8, 0))
	row{opts: core.Options{Index: idx}, textFirst: true, seed: 52, trials: 8, draw: topK([]float64{0.1, 0.4, 0.7, 1}, 8)}.check(t)
}

// TestThresholdMatchesExhaustive validates the threshold variant: the
// expansion search must find exactly the trajectories the exhaustive
// scan finds at or above θ.
func TestThresholdMatchesExhaustive(t *testing.T) {
	row{seed: 77, trials: 12, draw: func(w world, rng *rand.Rand, trial int) core.Request {
		req := topK([]float64{0, 0.2, 0.5, 0.8, 1}, 1)(w, rng, trial)
		theta := 0.3 + 0.6*rng.Float64()
		req.Theta = &theta
		return req
	}}.check(t)
}

// TestSearchWindowedMatchesFilteredExhaustive checks the windowed search
// against the exhaustive ranking of the trips departing inside the
// window, including one that wraps past midnight.
func TestSearchWindowedMatchesFilteredExhaustive(t *testing.T) {
	windows := []core.TimeWindow{{From: 6 * 3600, To: 12 * 3600}, {From: 12 * 3600, To: 20 * 3600}, {From: 20 * 3600, To: 6 * 3600}}
	row{seed: 201, trials: 9, draw: func(w world, rng *rand.Rand, trial int) core.Request {
		return core.Request{Query: w.query(rng, 2, 3, []float64{0, 0.4, 1}[trial%3], 5), Window: &windows[trial%3]}
	}}.check(t)
	e, err := core.NewEngine(brn().db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.SearchWindowedCtx(context.Background(), core.Query{}, core.TimeWindow{From: -5}); !errors.Is(err, core.ErrBadWindow) {
		t.Errorf("invalid window: %v", err)
	}
}

// TestOrderAwareSearchIsExact checks the order-aware search against a
// ranking of every trajectory by OrderAwareEvaluate, whose search is
// fresh per trajectory. In the first row the ordered scorings step the
// runs past the expansion's cursors, and the expansion must read those
// settles back from the runs' logs. The second and fourth rows are
// single four-place requests, at λ 1 and at λ 0.5. The third row is
// λ = 0, where only the k trips the text ranking returns are scored
// under the order.
func TestOrderAwareSearchIsExact(t *testing.T) {
	row{seed: 231, trials: 6, draw: func(w world, rng *rand.Rand, _ int) core.Request {
		return core.Request{Query: w.query(rng, 1+rng.IntN(3), 2, 0.3+0.5*rng.Float64(), 3), OrderAware: true}
	}}.check(t)
	row{seed: 273, draw: func(w world, rng *rand.Rand, _ int) core.Request {
		return core.Request{Query: w.query(rng, 4, 3, 1, 8), OrderAware: true}
	}}.check(t)
	row{seed: 251, trials: 6, draw: func(w world, rng *rand.Rand, _ int) core.Request {
		return core.Request{Query: w.query(rng, 1+rng.IntN(4), rng.IntN(4), 0, 1+rng.IntN(8)), OrderAware: true}
	}}.check(t)
	row{seed: 626, draw: func(w world, rng *rand.Rand, _ int) core.Request {
		return core.Request{Query: w.query(rng, 4, 3, 0.5, 5), OrderAware: true}
	}}.check(t)
}

func TestNoKeywordsQuery(t *testing.T) {
	row{seed: 41, draw: func(w world, rng *rand.Rand, _ int) core.Request {
		return core.Request{Query: w.query(rng, 3, 0, 0.7, 5)}
	}, also: func(t *testing.T, _ core.Request, got []core.Result) {
		for _, r := range got {
			if r.Textual != 0 {
				t.Errorf("textual score %g without query keywords", r.Textual)
			}
		}
	}}.check(t)
}

// TestKLargerThanStore: the answer is the whole store, ranked.
func TestKLargerThanStore(t *testing.T) {
	row{seed: 51, draw: func(w world, rng *rand.Rand, _ int) core.Request {
		return core.Request{Query: w.query(rng, 2, 2, 0.5, w.db.NumTrajectories()+50)}
	}}.check(t)
}

// TestExpansionDuplicateLocations pins the semantics of a query
// repeating the same place: each repetition is an independent query
// source, so the distances agree and the answer is the exhaustive one
// for the same repeated list.
func TestExpansionDuplicateLocations(t *testing.T) {
	row{seed: 301, draw: func(w world, rng *rand.Rand, _ int) core.Request {
		v := roadnet.VertexID(rng.IntN(w.g.NumVertices()))
		return core.Request{Query: core.Query{Locations: []roadnet.VertexID{v, v, v}, Keywords: w.vocab.DrawQueryTerms(0, 2, 0.8, rng), Lambda: 0.6, K: 4}}
	}, also: func(t *testing.T, _ core.Request, got []core.Result) {
		for _, r := range got {
			if r.Dists[0] != r.Dists[1] || r.Dists[1] != r.Dists[2] {
				t.Errorf("duplicate sources report different distances: %v", r.Dists)
			}
		}
	}}.check(t)
}

// TestQueryLocationOnTrajectory pins the d=0 case: a query location
// lying on a trajectory contributes kernel(0)=1 to its spatial score, so
// at λ=1 the search ranks a trip through it first with score 1.
func TestQueryLocationOnTrajectory(t *testing.T) {
	row{draw: func(w world, _ *rand.Rand, _ int) core.Request {
		return core.Request{Query: core.Query{Locations: []roadnet.VertexID{w.db.Traj(0).Samples[0].V}, Lambda: 1, K: 1}}
	}, also: func(t *testing.T, _ core.Request, got []core.Result) {
		if r := got[0]; r.Dists[0] != 0 || r.Spatial != 1 || r.Score != 1 {
			t.Errorf("top result %+v, want distance 0 and score 1", r)
		}
	}}.check(t)
}

// TestSingleTrajectoryStore drives the top-k and threshold searches
// against a minimal store.
func TestSingleTrajectoryStore(t *testing.T) {
	w := brn()
	vocab := textual.NewVocab()
	b := trajdb.NewBuilder(w.g, vocab)
	if _, err := b.AddWithKeywords([]trajdb.Sample{{V: 5, T: 100}}, []string{"solo"}); err != nil {
		t.Fatal(err)
	}
	w.db = b.Freeze()
	kw, _ := vocab.Lookup("solo")
	q := core.Query{Locations: []roadnet.VertexID{5, 20}, Keywords: textual.NewTermSet([]textual.TermID{kw}), Lambda: 0.5, K: 3}
	theta := 0.3
	row{w: w, trials: 2, draw: func(_ world, _ *rand.Rand, trial int) core.Request {
		if trial == 1 {
			return core.Request{Query: q, Theta: &theta}
		}
		return core.Request{Query: q}
	}, also: func(t *testing.T, req core.Request, got []core.Result) {
		if req.Theta == nil && (len(got) != 1 || got[0].Textual != 1) {
			t.Errorf("results = %+v, want the one trajectory with textual 1", got)
		}
	}}.check(t)
}

// TestExpansionMatchesExhaustiveOnRandomWorlds is the heavy property
// test: fresh tiny worlds (graph + corpus + vocabulary) per trial, each
// with a random rescan cadence, rescan amortization and probe radius
// floor, random query shapes, agreement with the oracle every time.
func TestExpansionMatchesExhaustiveOnRandomWorlds(t *testing.T) {
	for trial := range 15 {
		seed := uint64(1000 + trial)
		rng := rand.New(rand.NewPCG(seed, seed^77))
		style := roadnet.StyleSparse
		if trial%2 == 0 {
			style = roadnet.StyleDense
		}
		g, err := roadnet.GenerateCity(roadnet.CityOptions{Rows: 6 + rng.IntN(10), Cols: 6 + rng.IntN(10), Style: style, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		vocab := textual.GenerateVocab(1+rng.IntN(5), 5+rng.IntN(30), 1.0, seed)
		db, err := trajdb.Generate(g, trajdb.GenOptions{Count: 1 + rng.IntN(200), MeanSamples: 2 + rng.IntN(25), Vocab: vocab, Seed: seed ^ 3})
		if err != nil {
			t.Fatal(err)
		}
		relabel, probeFactor := 1+rng.IntN(100), 0.25+6*rng.Float64()
		// A divisor of one to four stretches the gap between rescans
		// once the active set outgrows relabelEvery times it.
		opts := core.WithPolicies(core.Options{}, relabel, 1+rng.IntN(4), probeFactor)
		row{w: world{g, vocab, db}, opts: opts, seed: seed, trials: 4, draw: func(w world, rng *rand.Rand, _ int) core.Request {
			locs := make([]roadnet.VertexID, 1+rng.IntN(6))
			for i := range locs {
				locs[i] = roadnet.VertexID(rng.IntN(w.g.NumVertices()))
			}
			var kws textual.TermSet
			if rng.IntN(4) > 0 {
				kws = w.vocab.DrawQueryTerms(rng.IntN(w.vocab.NumTopics()), 1+rng.IntN(4), 0.7, rng)
			}
			return core.Request{Query: core.Query{Locations: locs, Keywords: kws, Lambda: float64(rng.IntN(11)) / 10, K: 1 + rng.IntN(12)}}
		}}.check(t)
	}
}

// TestEvaluateAgreesWithExhaustive checks the single-trajectory
// reference scorer against the exhaustive scan's decomposition.
func TestEvaluateAgreesWithExhaustive(t *testing.T) {
	w := brn()
	e, err := core.NewEngine(w.db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := w.query(rand.New(rand.NewPCG(5, 6)), 3, 3, 0.5, 10)
	want, _, err := e.ExhaustiveSearchCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("exhaustive: %v", err)
	}
	for _, r := range want {
		got, err := e.Evaluate(q, r.Traj)
		if err == nil {
			err = difftest.SameResult(got, r)
		}
		if err != nil {
			t.Errorf("Evaluate(%d): %v", r.Traj, err)
		}
	}
}

// TestMonotoneK: growing k only appends results; the prefix is stable.
func TestMonotoneK(t *testing.T) {
	w := brn()
	e, err := core.NewEngine(w.db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := w.query(rand.New(rand.NewPCG(601, 602)), 3, 3, 0.5, 1)
	var prev []core.Result
	for _, k := range []int{1, 3, 7, 15} {
		q.K = k
		res, _, err := e.SearchCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if err := difftest.Mismatch(prev, res, len(prev)); err != nil {
			t.Errorf("k=%d changed the first %d results: %v", k, len(prev), err)
		}
		prev = res
	}
}
