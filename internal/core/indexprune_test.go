package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"

	"uots/internal/index"
	"uots/internal/roadnet"
	"uots/internal/trajdb"
)

// testTrajBounds builds the precomputed interval index over the shared
// fixture once per process — construction runs K Dijkstras plus a full
// corpus scan and every test here wants the same value.
var (
	testBoundsVal *index.TrajBounds
	testBoundsLM  *roadnet.Landmarks
)

func testBounds(t *testing.T) (*index.TrajBounds, *roadnet.Landmarks) {
	t.Helper()
	f := testFixture(t)
	if testBoundsVal == nil {
		testBoundsLM = roadnet.NewLandmarks(f.g, 8, 0)
		testBoundsVal = index.NewTrajBounds(f.db, testBoundsLM)
	}
	return testBoundsVal, testBoundsLM
}

// pruneVariants are the entry points the oracle runs on a plain and on
// an Options.Index engine to diff the answers byte for byte.
func pruneVariants() []ctxVariant {
	return []ctxVariant{
		{"Search", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.SearchCtx(ctx, q)
		}},
		{"SearchThreshold", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.SearchThresholdCtx(ctx, q, 0.4)
		}},
		{"ExhaustiveSearch", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.ExhaustiveSearchCtx(ctx, q)
		}},
		{"ExhaustiveThreshold", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.ExhaustiveThresholdCtx(ctx, q, 0.4)
		}},
		{"TextFirst", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.TextFirstSearchCtx(ctx, q)
		}},
	}
}

// TestIndexPruningIsByteIdentical is the oracle the tentpole rests on:
// enabling Options.Index must change zero
// result bytes on every search variant — same IDs, same scores, same
// order, bit-for-bit — while actually pruning (a prune that never fires
// would make the test vacuous).
func TestIndexPruningIsByteIdentical(t *testing.T) {
	tb, _ := testBounds(t)
	plain, f := newTestEngine(t, Options{})
	pruned, _ := newTestEngine(t, Options{Index: tb})

	rng := rand.New(rand.NewPCG(523, 0))
	ctx := context.Background()
	prunes := 0
	for i := 0; i < 15; i++ {
		q := f.randomQuery(rng, 2+i%3, 2+i%4, 0.3+0.05*float64(i%9), 5+i%8)
		for _, v := range pruneVariants() {
			want, _, err := v.run(plain, ctx, q)
			if err != nil {
				t.Fatalf("query %d %s plain: %v", i, v.name, err)
			}
			got, stats, err := v.run(pruned, ctx, q)
			if err != nil {
				t.Fatalf("query %d %s indexed: %v", i, v.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d %s: indexed results diverge from plain\ngot  %+v\nwant %+v",
					i, v.name, got, want)
			}
			prunes += stats.LandmarkPrunes
		}
	}
	if prunes == 0 {
		t.Fatal("index-assisted runs never pruned anything; the oracle proved nothing")
	}
}

// TestIndexPruningUnderCancellation: the indexed engine observes a
// pre-cancelled context exactly like the plain one — context.Canceled,
// no partial results — and stays uncorrupted for the next query.
func TestIndexPruningUnderCancellation(t *testing.T) {
	tb, _ := testBounds(t)
	plain, f := newTestEngine(t, Options{})
	pruned, _ := newTestEngine(t, Options{Index: tb})
	rng := rand.New(rand.NewPCG(311, 0))
	q := f.randomQuery(rng, 3, 4, 0.5, 8)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, v := range pruneVariants() {
		res, _, err := v.run(pruned, cancelled, q)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", v.name, err)
		}
		if res != nil {
			t.Errorf("%s: %d results leaked out of a cancelled query", v.name, len(res))
		}
	}
	// The aborted runs must leave no state behind: a fresh context still
	// reproduces the plain engine byte for byte.
	for _, v := range pruneVariants() {
		want, _, err := v.run(plain, context.Background(), q)
		if err != nil {
			t.Fatalf("%s plain: %v", v.name, err)
		}
		got, _, err := v.run(pruned, context.Background(), q)
		if err != nil {
			t.Fatalf("%s indexed after cancel: %v", v.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: results diverged after a cancelled run\ngot  %+v\nwant %+v", v.name, got, want)
		}
	}
}

// TestIndexPruningUnderStoreFaults: with the index layered over a
// faulting store, every variant still surfaces mid-query store panics as
// ErrStoreFault; with a healthy wrapped store, results stay identical to
// the unwrapped plain engine (the index does not care what it prunes
// over).
func TestIndexPruningUnderStoreFaults(t *testing.T) {
	tb, _ := testBounds(t)
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(641, 0))
	q := f.randomQuery(rng, 3, 4, 0.5, 8)

	faulty := NewFaultStore(f.db, FaultConfig{FailEveryTraj: 1, FailEveryKeywords: 1})
	e, err := NewEngine(faulty, Options{Index: tb})
	if err != nil {
		t.Fatalf("NewEngine over FaultStore: %v", err)
	}
	for _, v := range pruneVariants() {
		if _, _, err := v.run(e, context.Background(), q); !errors.Is(err, ErrStoreFault) {
			t.Errorf("%s: err = %v, want ErrStoreFault", v.name, err)
		}
	}

	healthy := NewFaultStore(f.db, FaultConfig{})
	wrapped, err := NewEngine(healthy, Options{Index: tb})
	if err != nil {
		t.Fatalf("NewEngine over healthy FaultStore: %v", err)
	}
	plain, _ := newTestEngine(t, Options{})
	for _, v := range pruneVariants() {
		want, _, err := v.run(plain, context.Background(), q)
		if err != nil {
			t.Fatalf("%s plain: %v", v.name, err)
		}
		got, _, err := v.run(wrapped, context.Background(), q)
		if err != nil {
			t.Fatalf("%s wrapped: %v", v.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: wrapped-store results diverge from plain\ngot  %+v\nwant %+v", v.name, got, want)
		}
	}
}

// shortSource is an index.Source covering fewer trajectories than the
// fixture store — for exercising the coverage check.
type shortSource struct{ *trajdb.Store }

func (s shortSource) NumTrajectories() int { return s.Store.NumTrajectories() - 1 }

// TestIndexMismatchRejected: an index that does not cover the store is
// refused up front at engine construction, the one place pruning aids are
// configured — silently pruning with stale bounds would drop live
// trajectories.
func TestIndexMismatchRejected(t *testing.T) {
	_, lm := testBounds(t)
	f := testFixture(t)
	stale := index.NewTrajBounds(shortSource{f.db}, lm)
	if _, err := NewEngine(f.db, Options{Index: stale}); !errors.Is(err, ErrIndexMismatch) {
		t.Errorf("NewEngine: err = %v, want ErrIndexMismatch", err)
	}
}
