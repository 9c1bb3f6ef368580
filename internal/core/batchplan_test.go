package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"uots/internal/obs"
	"uots/internal/roadnet"
	"uots/internal/trajdb"
)

// Tests of the shared-expansion batch planner (batchplan.go): the
// cross-validation suite pinning byte-identical results and stats
// against independent runs, the cancellation and store-fault paths
// through the shared frontiers, and the finalizeBatch regression tests
// for the sentinel-misclassification fix.

// hotspotQueries draws n queries whose locations all come from a small
// pool of source vertices, guaranteeing the cross-query source overlap
// the planner exploits (the serving shape: many users, few hotspots).
// Duplicate locations within one query are allowed and intended.
func hotspotQueries(f fixture, rng *rand.Rand, n, poolSize int, lambda float64, k int) []Query {
	pool := make([]roadnet.VertexID, poolSize)
	for i := range pool {
		pool[i] = roadnet.VertexID(rng.IntN(f.g.NumVertices()))
	}
	queries := make([]Query, n)
	for i := range queries {
		q := f.randomQuery(rng, 2+rng.IntN(2), 3, lambda, k)
		for j := range q.Locations {
			q.Locations[j] = pool[rng.IntN(len(pool))]
		}
		queries[i] = q
	}
	return queries
}

// statsExceptElapsed strips the wall-clock field so per-query stats can
// be compared exactly (SearchStats is comparable).
func statsExceptElapsed(st SearchStats) SearchStats {
	st.Elapsed = 0
	return st
}

// TestBatchSharedExpansionCrossValidation is the planner's correctness
// contract: with SharedExpansion on, every query's Results and
// SearchStats (except Elapsed) are byte-identical to both an
// independent batch run and a per-query SearchCtx run — sharing the
// frontiers must be observationally invisible per query.
func TestBatchSharedExpansionCrossValidation(t *testing.T) {
	e, f := newTestEngine(t, Options{})
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(91, 0))
	for _, lambda := range []float64{0, 0.3, 0.7, 1} {
		queries := hotspotQueries(f, rng, 16, 4, lambda, 5)
		shared, sstats, err := e.SearchBatch(ctx, queries, BatchOptions{Workers: 4, SharedExpansion: true})
		if err != nil {
			t.Fatalf("λ=%v shared batch: %v", lambda, err)
		}
		indep, istats, err := e.SearchBatch(ctx, queries, BatchOptions{Workers: 4})
		if err != nil {
			t.Fatalf("λ=%v independent batch: %v", lambda, err)
		}
		for i := range queries {
			if shared[i].Err != nil || indep[i].Err != nil {
				t.Fatalf("λ=%v entry %d: errs %v / %v", lambda, i, shared[i].Err, indep[i].Err)
			}
			if !reflect.DeepEqual(shared[i].Results, indep[i].Results) {
				t.Errorf("λ=%v entry %d: shared results diverge from independent batch", lambda, i)
			}
			if got, want := statsExceptElapsed(shared[i].Stats), statsExceptElapsed(indep[i].Stats); got != want {
				t.Errorf("λ=%v entry %d: stats diverge: shared %+v, independent %+v", lambda, i, got, want)
			}
			solo, soloStats, err := e.SearchCtx(ctx, queries[i])
			if err != nil {
				t.Fatalf("λ=%v entry %d SearchCtx: %v", lambda, i, err)
			}
			if !reflect.DeepEqual(shared[i].Results, solo) {
				t.Errorf("λ=%v entry %d: shared results diverge from per-query SearchCtx", lambda, i)
			}
			if got, want := statsExceptElapsed(shared[i].Stats), statsExceptElapsed(soloStats); got != want {
				t.Errorf("λ=%v entry %d: stats diverge from SearchCtx: %+v vs %+v", lambda, i, got, want)
			}
		}
		// The planner counters must record genuine sharing: more source
		// references than distinct frontiers, and more settles served to
		// queries than Dijkstra settles performed (the saved expansions).
		// λ=0 routes to the text-only fast path — no expansion happens at
		// all, so the counters are legitimately zero there.
		if lambda == 0 {
			if sstats.DistinctSources != 0 || sstats.ServedSettles != 0 {
				t.Errorf("λ=0: text-only batch reported planner counters: %+v", sstats)
			}
			continue
		}
		if sstats.DistinctSources <= 0 || sstats.SourceRefs <= sstats.DistinctSources {
			t.Errorf("λ=%v: no source overlap recorded: sources=%d refs=%d",
				lambda, sstats.DistinctSources, sstats.SourceRefs)
		}
		if sstats.ServedSettles <= sstats.FrontierSettles {
			t.Errorf("λ=%v: no expansion saving: served=%d frontier=%d",
				lambda, sstats.ServedSettles, sstats.FrontierSettles)
		}
		if istats.DistinctSources != 0 || istats.SourceRefs != 0 ||
			istats.FrontierSettles != 0 || istats.ServedSettles != 0 {
			t.Errorf("λ=%v: independent batch reported planner counters: %+v", lambda, istats)
		}
	}
}

// TestBatchSharedStaleShareFallsBack verifies the snapshot keying: a
// share built for one engine is refused by an engine over a different
// store (matches fails), falling back to private expanders with
// unchanged results rather than serving foreign scan lists.
func TestBatchSharedStaleShareFallsBack(t *testing.T) {
	e, f := newTestEngine(t, Options{})
	other, err := NewEngine(NewFaultStore(f.db, FaultConfig{}), Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	rng := rand.New(rand.NewPCG(93, 0))
	q := f.randomQuery(rng, 3, 3, 0.5, 5)

	share := newBatchShare(e)
	if share.matches(other) {
		t.Fatal("share built for one store matches an engine over another store")
	}
	ctx := contextWithBatchShare(context.Background(), share)
	got, _, err := other.SearchCtx(ctx, q)
	if err != nil {
		t.Fatalf("SearchCtx with foreign share: %v", err)
	}
	want, _, err := other.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("SearchCtx: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("foreign share perturbed results instead of being ignored")
	}
	if n := share.sourceRefs.Load(); n != 0 {
		t.Errorf("foreign share was consulted: %d source refs recorded", n)
	}
}

// scanFaultStore panics with a *trajdb.StoreError on the n-th
// TrajsAtVertex call — the access path FaultStore does not cover, and
// the one the shared frontiers scan under their mutex.
type scanFaultStore struct {
	TrajStore
	n     atomic.Int64
	failN int64
}

func (s *scanFaultStore) TrajsAtVertex(v roadnet.VertexID) []trajdb.TrajID {
	if n := s.n.Add(1); s.failN > 0 && n == s.failN {
		panic(&trajdb.StoreError{Op: "TrajsAtVertex", Err: ErrInjected})
	}
	return s.TrajStore.TrajsAtVertex(v)
}

// TestBatchSharedFrontierStoreFault injects a one-shot store fault into
// the scan path under the shared-frontier mutex. The query that
// triggered the extension must fail with ErrStoreFault; the frontier
// must stay usable (mutex released, settle retried) so every other
// query completes with correct results — no deadlock, no hole in the
// shared settle stream.
func TestBatchSharedFrontierStoreFault(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(94, 0))
	queries := hotspotQueries(f, rng, 12, 3, 0.5, 5)

	clean, err := NewEngine(f.db, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	want, _, err := clean.SearchBatch(context.Background(), queries, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatalf("clean batch: %v", err)
	}

	fs := &scanFaultStore{TrajStore: f.db, failN: 40}
	e, err := NewEngine(fs, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	out, stats, err := e.SearchBatch(context.Background(), queries, BatchOptions{Workers: 4, SharedExpansion: true})
	if err != nil {
		t.Fatalf("faulted batch: %v", err)
	}
	failed := 0
	for i, o := range out {
		if o.Err != nil {
			if !errors.Is(o.Err, ErrStoreFault) {
				t.Errorf("entry %d: err %v does not wrap ErrStoreFault", i, o.Err)
			}
			failed++
			continue
		}
		if !reflect.DeepEqual(o.Results, want[i].Results) {
			t.Errorf("entry %d: results diverge after a sibling's store fault", i)
		}
	}
	if failed == 0 {
		t.Fatal("no entry faulted; failN=40 should trip during the batch")
	}
	if failed == len(out) {
		t.Fatal("every entry faulted; the one-shot fault should hit one query")
	}
	if stats.Failed != failed {
		t.Errorf("stats.Failed = %d, want %d", stats.Failed, failed)
	}
}

// cancelOnScanStore cancels a context on the n-th TrajsAtVertex call,
// so a shared-expansion batch is cancelled while frontiers are mid-
// extension.
type cancelOnScanStore struct {
	TrajStore
	n      atomic.Int64
	after  int64
	once   sync.Once
	cancel context.CancelFunc
}

func (s *cancelOnScanStore) TrajsAtVertex(v roadnet.VertexID) []trajdb.TrajID {
	if s.n.Add(1) >= s.after {
		s.once.Do(s.cancel)
	}
	return s.TrajStore.TrajsAtVertex(v)
}

// TestBatchSharedCancellation cancels a shared-expansion batch from
// inside the frontier scan path and verifies the batch returns promptly
// with ctx.Err(), every slot carries either a finished result or an
// error, and slots that completed before the cancel keep their results.
func TestBatchSharedCancellation(t *testing.T) {
	f := testFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &cancelOnScanStore{TrajStore: f.db, after: 60, cancel: cancel}
	e, err := NewEngine(cs, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	rng := rand.New(rand.NewPCG(95, 0))
	queries := hotspotQueries(f, rng, 32, 3, 0.5, 5)

	out, stats, err := e.SearchBatch(ctx, queries, BatchOptions{Workers: 2, SharedExpansion: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	cancelled, completed := 0, 0
	for i, o := range out {
		switch {
		case errors.Is(o.Err, context.Canceled):
			cancelled++
		case o.Err != nil:
			t.Errorf("entry %d: unexpected error %v", i, o.Err)
		default:
			completed++
			if o.Results == nil {
				t.Errorf("entry %d: successful slot lost its results", i)
			}
		}
	}
	if cancelled == 0 {
		t.Error("no entry recorded context.Canceled; the cancel fired too late to test anything")
	}
	if stats.Failed != cancelled {
		t.Errorf("stats.Failed = %d, want %d cancelled entries", stats.Failed, cancelled)
	}
}

// TestBatchSharedTraceEvent verifies a shared batch emits the
// batch_plan span event carrying the planner counters.
func TestBatchSharedTraceEvent(t *testing.T) {
	e, f := newTestEngine(t, Options{})
	rng := rand.New(rand.NewPCG(96, 0))
	queries := hotspotQueries(f, rng, 8, 3, 0.5, 5)
	rec := obs.NewTraceRecorder(0)
	ctx := obs.ContextWithTracer(context.Background(), rec)
	_, stats, err := e.SearchBatch(ctx, queries, BatchOptions{Workers: 2, SharedExpansion: true})
	if err != nil {
		t.Fatalf("SearchBatch: %v", err)
	}
	for _, ev := range rec.Events() {
		if ev.Kind == TraceBatchPlan {
			if got, want := uint64(ev.Value), stats.ServedSettles; got != want {
				t.Errorf("batch_plan Value = %d, want ServedSettles %d", got, want)
			}
			if got, want := uint64(ev.Extra), stats.FrontierSettles; got != want {
				t.Errorf("batch_plan Extra = %d, want FrontierSettles %d", got, want)
			}
			return
		}
	}
	t.Error("no batch_plan event in the trace of a shared batch")
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
	queries := hotspotQueries(f, rng, 6, 3, 0.5, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, stats, err := e.SearchBatch(ctx, queries, BatchOptions{Workers: 2, SharedExpansion: true})
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
