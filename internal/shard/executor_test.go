package shard

import (
	"context"
	"errors"
	"math/rand/v2"
	"strconv"
	"sync"
	"testing"

	"uots/internal/core"
	"uots/internal/difftest"
	"uots/internal/obs"
)

func TestNewExecutorRejectsBadConfigs(t *testing.T) {
	f := testFixture(t)
	if _, err := NewExecutor(f.db, core.Options{}, Config{Shards: 0}); !errors.Is(err, ErrBadShards) {
		t.Errorf("Shards=0: err = %v, want ErrBadShards", err)
	}
	if _, err := NewExecutor(f.db, core.Options{}, Config{Shards: -3}); !errors.Is(err, ErrBadShards) {
		t.Errorf("Shards=-3: err = %v, want ErrBadShards", err)
	}
	if _, err := NewExecutor(nil, core.Options{}, Config{Shards: 2}); !errors.Is(err, core.ErrNilStore) {
		t.Errorf("nil store: err = %v, want core.ErrNilStore", err)
	}
}

func TestExecutorClampsShardCount(t *testing.T) {
	f := testFixture(t)
	ex, err := NewExecutor(f.db, core.Options{}, Config{Shards: 100000})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer ex.Close()
	if got := ex.NumShards(); got != f.db.NumTrajectories() {
		t.Fatalf("NumShards = %d, want clamp to %d trajectories", got, f.db.NumTrajectories())
	}
	// Even at one trajectory per shard the answers stay exact.
	req := core.Request{Query: f.randomQuery(rand.New(rand.NewPCG(73, 0)), 2, 2, 0.5, 5)}
	mono, err := core.NewEngine(f.db, core.Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ranking, k, err := difftest.Expect(context.Background(), mono, f.db, req)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	got, _, err := ex.SearchCtx(context.Background(), req.Query)
	if err != nil {
		t.Fatalf("sharded SearchCtx: %v", err)
	}
	if err := difftest.Mismatch(got, ranking, k); err != nil {
		t.Errorf("max shards: %v", err)
	}
}

func TestExecutorClosedRejectsQueries(t *testing.T) {
	f := testFixture(t)
	ex, err := NewExecutor(f.db, core.Options{}, Config{Shards: 2})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	ex.Close()
	rng := rand.New(rand.NewPCG(79, 0))
	q := f.randomQuery(rng, 2, 2, 0.5, 3)
	if _, _, err := ex.SearchCtx(context.Background(), q); !errors.Is(err, ErrClosed) {
		t.Fatalf("SearchCtx after Close: err = %v, want ErrClosed", err)
	}
	if _, _, err := ex.SearchBatch(context.Background(), []core.Query{q}, core.BatchOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SearchBatch after Close: err = %v, want ErrClosed", err)
	}
}

func TestExecutorQueryValidation(t *testing.T) {
	f := testFixture(t)
	ex, err := NewExecutor(f.db, core.Options{}, Config{Shards: 3})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer ex.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(83, 0))
	good := f.randomQuery(rng, 2, 2, 0.5, 5)

	if _, _, err := ex.SearchCtx(ctx, core.Query{}); !errors.Is(err, core.ErrNoLocations) {
		t.Errorf("empty query: err = %v, want ErrNoLocations", err)
	}
	bad := good
	bad.Lambda = 1.5
	if _, _, err := ex.SearchCtx(ctx, bad); !errors.Is(err, core.ErrBadLambda) {
		t.Errorf("bad lambda: err = %v, want ErrBadLambda", err)
	}
	bad = good
	bad.K = -1
	if _, _, err := ex.SearchCtx(ctx, bad); !errors.Is(err, core.ErrBadK) {
		t.Errorf("bad k: err = %v, want ErrBadK", err)
	}
	if _, _, err := ex.DiversifiedSearchCtx(ctx, bad, core.DiversifyOptions{}); !errors.Is(err, core.ErrBadK) {
		t.Errorf("diversified bad k: err = %v, want ErrBadK", err)
	}
	if _, _, err := ex.DiversifiedSearchCtx(ctx, good, core.DiversifyOptions{Mu: 1.5}); !errors.Is(err, core.ErrBadDiversity) {
		t.Errorf("bad mu: err = %v, want ErrBadDiversity", err)
	}
	if _, _, err := ex.SearchThresholdCtx(ctx, good, 0); !errors.Is(err, core.ErrBadThreshold) {
		t.Errorf("bad theta: err = %v, want ErrBadThreshold", err)
	}
	if _, _, err := ex.SearchWindowedCtx(ctx, good, core.TimeWindow{From: -1}); !errors.Is(err, core.ErrBadWindow) {
		t.Errorf("bad window: err = %v, want ErrBadWindow", err)
	}
}

func TestScatterTraceAndMetrics(t *testing.T) {
	f := testFixture(t)
	reg := obs.NewRegistry()
	ex, err := NewExecutor(f.db, core.Options{}, Config{Shards: 4, Metrics: reg})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer ex.Close()

	rng := rand.New(rand.NewPCG(89, 0))
	q := f.randomQuery(rng, 3, 3, 0.5, 5)
	rec := obs.NewTraceRecorder(0)
	ctx := obs.ContextWithTracer(context.Background(), rec)
	if _, _, err := ex.SearchCtx(ctx, q); err != nil {
		t.Fatalf("SearchCtx: %v", err)
	}

	kinds := make(map[string]int)
	var doneOrder []float64
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
		if ev.Kind == TraceShardDone {
			doneOrder = append(doneOrder, ev.Value)
		}
	}
	if kinds[TraceScatter] != 1 {
		t.Errorf("%d %s events, want 1", kinds[TraceScatter], TraceScatter)
	}
	if kinds[TraceMerge] != 1 {
		t.Errorf("%d %s events, want 1", kinds[TraceMerge], TraceMerge)
	}
	if kinds[TraceShardDone] != ex.NumShards() {
		t.Errorf("%d %s events, want %d", kinds[TraceShardDone], TraceShardDone, ex.NumShards())
	}
	// shard_done events are emitted at gather time in index order, so a
	// traced query replays deterministically.
	for i, v := range doneOrder {
		if v != float64(i) {
			t.Errorf("shard_done order %v, want shard indices in ascending order", doneOrder)
			break
		}
	}

	if got := reg.CounterVec("uots_shard_queries_total", "", "variant").With("search").Value(); got != 1 {
		t.Errorf("uots_shard_queries_total{search} = %d, want 1", got)
	}
	var searches uint64
	for s := 0; s < ex.NumShards(); s++ {
		searches += reg.CounterVec("uots_shard_searches_total", "", "shard").With(strconv.Itoa(s)).Value()
	}
	if searches != uint64(ex.NumShards()) {
		t.Errorf("summed uots_shard_searches_total = %d, want %d", searches, ex.NumShards())
	}
}

// TestSharedBoundPrunesHappen exercises the cross-shard bound exchange:
// on queries whose answers concentrate score mass, at least one shard
// should record a prune it could not have made from its local threshold
// alone. This is statistical over a query batch — the exchange is
// timing-dependent — so the assertion is over the sum.
func TestSharedBoundPrunesHappen(t *testing.T) {
	f := testFixture(t)
	ex, err := NewExecutor(f.db, core.Options{}, Config{Shards: 4})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer ex.Close()

	rng := rand.New(rand.NewPCG(97, 0))
	total := 0
	for i := 0; i < 20; i++ {
		q := f.randomQuery(rng, 3, 3, 0.8, 2)
		_, stats, err := ex.SearchCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("SearchCtx: %v", err)
		}
		total += stats.SharedBoundPrunes
	}
	if total == 0 {
		t.Skip("no cross-shard prunes observed on this fixture/timing; bound exchange unverified here (covered by core unit tests)")
	}
}

func TestWorkerPoolConcurrentQueries(t *testing.T) {
	f := testFixture(t)
	ex, err := NewExecutor(f.db, core.Options{}, Config{Shards: 4, Workers: 2})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer ex.Close()
	mono, err := core.NewEngine(f.db, core.Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	rng := rand.New(rand.NewPCG(101, 0))
	queries := make([]core.Query, 8)
	want := make([][]core.Result, len(queries))
	for i := range queries {
		queries[i] = f.randomQuery(rng, 2, 3, 0.5, 5)
		r, _, err := mono.SearchCtx(context.Background(), queries[i])
		if err != nil {
			t.Fatalf("monolithic SearchCtx: %v", err)
		}
		want[i] = r
	}

	// More in-flight queries than workers: scatters from different
	// queries interleave on the two workers and must not deadlock or
	// cross results.
	var wg sync.WaitGroup
	got := make([][]core.Result, len(queries))
	errs := make([]error, len(queries))
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _, errs[i] = ex.SearchCtx(context.Background(), queries[i])
		}(i)
	}
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("concurrent SearchCtx %d: %v", i, errs[i])
		}
		if err := difftest.Mismatch(got[i], want[i], len(want[i])); err != nil {
			t.Errorf("concurrent query %d: %v", i, err)
		}
	}
}
