package core

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

func TestNewEngineValidation(t *testing.T) {
	f := testFixture(t)
	if _, err := NewEngine(nil, Options{}); !errors.Is(err, ErrNilStore) {
		t.Errorf("nil store: %v", err)
	}
	empty := trajdb.NewBuilder(f.g, nil).Freeze()
	if _, err := NewEngine(empty, Options{}); !errors.Is(err, ErrEmptyStore) {
		t.Errorf("empty store: %v", err)
	}
	bad := []Options{
		{DistScale: -1},
		{DistScale: math.NaN()},
		{Scheduling: Scheduling(99)},
	}
	for i, opts := range bad {
		if _, err := NewEngine(f.db, opts); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
	e, err := NewEngine(f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Options()
	if got.DistScale != 1 || got.relabelEvery != 64 || got.rescanDivisor != 16 || got.probeRadiusFactor != 2.5 {
		t.Errorf("defaults not applied: %+v", got)
	}
	if e.Store() != f.db {
		t.Error("Store accessor wrong")
	}
}

func TestQueryValidation(t *testing.T) {
	e, f := testEngineDefault(t)
	base := Query{Locations: []roadnet.VertexID{0}, Lambda: 0.5, K: 1}
	cases := []struct {
		name   string
		mutate func(Query) Query
		want   error
	}{
		{"no locations", func(q Query) Query { q.Locations = nil; return q }, ErrNoLocations},
		{"too many", func(q Query) Query {
			q.Locations = make([]roadnet.VertexID, 65)
			return q
		}, ErrTooManyLocations},
		{"bad vertex", func(q Query) Query { q.Locations = []roadnet.VertexID{-1}; return q }, ErrLocationRange},
		{"vertex past end", func(q Query) Query {
			q.Locations = []roadnet.VertexID{roadnet.VertexID(f.g.NumVertices())}
			return q
		}, ErrLocationRange},
		{"lambda low", func(q Query) Query { q.Lambda = -0.1; return q }, ErrBadLambda},
		{"lambda high", func(q Query) Query { q.Lambda = 1.1; return q }, ErrBadLambda},
		{"lambda NaN", func(q Query) Query { q.Lambda = math.NaN(); return q }, ErrBadLambda},
		{"negative k", func(q Query) Query { q.K = -2; return q }, ErrBadK},
	}
	for _, c := range cases {
		if _, _, err := e.SearchCtx(context.Background(), c.mutate(base)); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	// K=0 defaults to 1.
	res, _, err := e.SearchCtx(context.Background(), base)
	if err != nil || len(res) != 1 {
		t.Fatalf("K default: %d results, %v", len(res), err)
	}
	// Threshold validation.
	for _, theta := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, _, err := e.SearchThresholdCtx(context.Background(), base, theta); !errors.Is(err, ErrBadThreshold) {
			t.Errorf("theta=%g accepted", theta)
		}
		if _, _, err := e.ExhaustiveThresholdCtx(context.Background(), base, theta); !errors.Is(err, ErrBadThreshold) {
			t.Errorf("exhaustive theta=%g accepted", theta)
		}
	}
	// Evaluate validation.
	if _, err := e.Evaluate(base, -1); !errors.Is(err, ErrTrajRange) {
		t.Errorf("Evaluate(-1): %v", err)
	}
	if _, err := e.Evaluate(base, trajdb.TrajID(f.db.NumTrajectories())); !errors.Is(err, ErrTrajRange) {
		t.Errorf("Evaluate(past end): %v", err)
	}
}

func TestResultsSortedAndScoresDecomposed(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 10; trial++ {
		q := f.randomQuery(rng, 1+rng.IntN(4), 1+rng.IntN(4), 0.1+0.8*rng.Float64(), 8)
		res, _, err := e.SearchCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if i > 0 && res[i-1].Score < r.Score-scoreTol {
				t.Fatalf("results not sorted: %g before %g", res[i-1].Score, r.Score)
			}
			if r.Score < 0 || r.Score > 1+scoreTol {
				t.Fatalf("score %g out of range", r.Score)
			}
			want := q.Lambda*r.Spatial + (1-q.Lambda)*r.Textual
			if math.Abs(r.Score-want) > scoreTol {
				t.Fatalf("score %g != decomposition %g", r.Score, want)
			}
			if len(r.Dists) != len(q.Locations) {
				t.Fatalf("Dists has %d entries for %d locations", len(r.Dists), len(q.Locations))
			}
			// Spatial must equal the kernel fold of the reported distances.
			var sum float64
			for _, d := range r.Dists {
				if !math.IsInf(d, 1) {
					sum += math.Exp(-d / e.Options().DistScale)
				}
			}
			if math.Abs(r.Spatial-sum/float64(len(q.Locations))) > scoreTol {
				t.Fatalf("spatial %g inconsistent with dists", r.Spatial)
			}
		}
	}
}

func TestStatsAreSane(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(21, 22))
	q := f.randomQuery(rng, 3, 3, 0.5, 5)
	_, stats, err := e.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.VisitedTrajectories <= 0 || stats.VisitedTrajectories > f.db.NumTrajectories() {
		t.Errorf("visited = %d", stats.VisitedTrajectories)
	}
	if stats.Candidates <= 0 || stats.Candidates > stats.VisitedTrajectories {
		t.Errorf("candidates = %d of %d visited", stats.Candidates, stats.VisitedTrajectories)
	}
	if stats.ScanEvents < stats.VisitedTrajectories-stats.Probes {
		t.Errorf("scan events %d below visited %d", stats.ScanEvents, stats.VisitedTrajectories)
	}
	if stats.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
	_, exStats, err := e.ExhaustiveSearchCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if exStats.VisitedTrajectories != f.db.NumTrajectories() {
		t.Errorf("exhaustive visited %d, want all %d", exStats.VisitedTrajectories, f.db.NumTrajectories())
	}
}

func TestLambdaExtremes(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(31, 32))
	// λ=1: pure spatial; textual scores must not affect ranking.
	q := f.randomQuery(rng, 3, 3, 1.0, 5)
	res, _, err := e.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if math.Abs(r.Score-r.Spatial) > scoreTol {
			t.Errorf("λ=1 score %g != spatial %g", r.Score, r.Spatial)
		}
	}
	// λ=0: pure textual fast path, still returns full decomposition.
	q.Lambda = 0
	res, stats, err := e.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.EarlyTerminated {
		t.Error("λ=0 should use the index fast path")
	}
	for _, r := range res {
		if math.Abs(r.Score-r.Textual) > scoreTol {
			t.Errorf("λ=0 score %g != textual %g", r.Score, r.Textual)
		}
		if len(r.Dists) != len(q.Locations) {
			t.Error("λ=0 results should still carry distances")
		}
	}
}

func TestSearchBatch(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(81, 82))
	queries := make([]Query, 12)
	for i := range queries {
		queries[i] = f.randomQuery(rng, 2, 2, 0.5, 3)
	}
	// An invalid query in the middle must fail alone.
	queries[5].Lambda = 7

	for _, workers := range []int{1, 3, 8} {
		out, stats, err := e.SearchBatch(context.Background(), queries, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Queries != len(queries) || stats.Failed != 1 {
			t.Fatalf("workers=%d: stats %+v", workers, stats)
		}
		for i, r := range out {
			if i == 5 {
				if r.Err == nil {
					t.Fatal("invalid query did not fail")
				}
				continue
			}
			if r.Err != nil {
				t.Fatalf("query %d failed: %v", i, r.Err)
			}
			if r.Index != i {
				t.Fatalf("result %d has index %d", i, r.Index)
			}
			// Batch results must match sequential results exactly.
			seq, _, err := e.SearchCtx(context.Background(), queries[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.Results, seq) {
				t.Fatalf("query %d: batch %v, sequential %v", i, r.Results, seq)
			}
		}
	}
}

// TestFinalizeBatchTrustsScheduledSlots is the regression test for the
// batch sentinel misclassification: a slot that WAS handed to a worker
// and completed with the zero-value success shape (no results, no
// error, zero stats) must stay a success even when the batch context
// has since been cancelled. The previous implementation inferred
// unscheduled slots from that zero shape and re-marked such a slot with
// the cancellation error.
func TestFinalizeBatchTrustsScheduledSlots(t *testing.T) {
	out := []BatchResult{{Index: 0}}
	stats := finalizeBatch(out, []bool{true}, context.Canceled)
	if out[0].Err != nil {
		t.Fatalf("scheduled empty-success slot reclassified as failed: %v", out[0].Err)
	}
	if stats.Failed != 0 {
		t.Fatalf("stats.Failed = %d, want 0", stats.Failed)
	}
	if stats.Queries != 1 {
		t.Fatalf("stats.Queries = %d, want 1", stats.Queries)
	}
}

// TestFinalizeBatchMarksUnscheduledSlots verifies the complementary
// half of the fix: slots the feeder never handed to a worker are marked
// with the batch's cancellation error, with their index filled in, and
// counted as failed — while scheduled slots keep their written outcome.
func TestFinalizeBatchMarksUnscheduledSlots(t *testing.T) {
	out := make([]BatchResult, 3)
	out[0] = BatchResult{Index: 0, Results: []Result{{Traj: 7, Score: 0.5}},
		Stats: SearchStats{VisitedTrajectories: 3}}
	stats := finalizeBatch(out, []bool{true, false, false}, context.Canceled)
	if out[0].Err != nil || len(out[0].Results) != 1 {
		t.Errorf("scheduled slot was rewritten: %+v", out[0])
	}
	for i := 1; i < 3; i++ {
		if !errors.Is(out[i].Err, context.Canceled) {
			t.Errorf("unscheduled slot %d: err = %v, want context.Canceled", i, out[i].Err)
		}
		if out[i].Index != i {
			t.Errorf("unscheduled slot %d: index = %d", i, out[i].Index)
		}
	}
	if stats.Failed != 2 {
		t.Errorf("stats.Failed = %d, want 2", stats.Failed)
	}
	if stats.PerQuery.VisitedTrajectories != 3 {
		t.Errorf("PerQuery folded wrong slots: %+v", stats.PerQuery)
	}
}

// TestBatchUnscheduledSlotsEndToEnd drives the unscheduled path through
// the public API: a pre-cancelled context means no query is ever
// scheduled, and every slot must carry the cancellation error.
func TestBatchUnscheduledSlotsEndToEnd(t *testing.T) {
	e, f := newTestEngine(t, Options{})
	rng := rand.New(rand.NewPCG(97, 0))
	queries := make([]Query, 6)
	for i := range queries {
		queries[i] = f.randomQuery(rng, 2, 3, 0.5, 5)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, stats, err := e.SearchBatch(ctx, queries, BatchOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	for i, o := range out {
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("entry %d: err = %v, want context.Canceled", i, o.Err)
		}
	}
	if stats.Failed != len(queries) {
		t.Errorf("stats.Failed = %d, want %d", stats.Failed, len(queries))
	}
}

func TestSearchBatchCancellation(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(91, 92))
	queries := make([]Query, 50)
	for i := range queries {
		queries[i] = f.randomQuery(rng, 2, 2, 0.5, 3)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before scheduling
	out, stats, err := e.SearchBatch(ctx, queries, BatchOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if stats.Failed == 0 {
		t.Error("cancelled batch should report failures")
	}
	cancelled := 0
	for _, r := range out {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no per-query cancellation errors recorded")
	}
}

func TestStringers(t *testing.T) {
	if ScheduleHeuristic.String() != "heuristic" ||
		ScheduleRoundRobin.String() != "roundrobin" {
		t.Error("Scheduling strings wrong")
	}
	if Scheduling(9).String() == "" {
		t.Error("unknown Scheduling should still print")
	}
	if AlgoExpansion.String() != "expansion" || AlgoExhaustive.String() != "exhaustive" ||
		AlgoTextFirst.String() != "textfirst" {
		t.Error("Algorithm strings wrong")
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown Algorithm should still print")
	}
}

func TestTextScoredMatchesIndex(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(97, 98))
	q := f.randomQuery(rng, 2, 3, 0.5, 5)
	_, stats, err := e.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := len(f.db.TextIndex().DocsWithAny(textual.TermSet(q.Keywords)))
	if stats.TextScored != want {
		t.Errorf("TextScored = %d, index says %d", stats.TextScored, want)
	}
}
