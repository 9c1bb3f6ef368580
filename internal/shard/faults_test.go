package shard

import (
	"context"
	"errors"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"uots/internal/core"
	"uots/internal/difftest"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// cancelStore cancels a context the first time any shard's expansion
// settles a vertex (TrajsAtVertex runs on every settle), making
// mid-query cancellation deterministic.
type cancelStore struct {
	core.TrajStore
	once   *sync.Once
	cancel context.CancelFunc
}

func (s *cancelStore) TrajsAtVertex(v roadnet.VertexID) []trajdb.TrajID {
	s.once.Do(s.cancel)
	return s.TrajStore.TrajsAtVertex(v)
}

func TestShardedMidQueryCancellation(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(47, 0))
	q := f.randomQuery(rng, 3, 3, 0.5, 5)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	ex, err := NewExecutor(f.db, core.Options{}, Config{
		Shards: 4,
		wrapStore: func(_ int, s core.TrajStore) core.TrajStore {
			return &cancelStore{TrajStore: s, once: &once, cancel: cancel}
		},
	})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer ex.Close()

	res, _, err := ex.SearchCtx(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchCtx after mid-query cancel: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled query returned %d results, want none", len(res))
	}
}

func TestShardedPreCancelled(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(53, 0))
	q := f.randomQuery(rng, 2, 2, 0.5, 5)

	ex, err := NewExecutor(f.db, core.Options{}, Config{Shards: 3})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer ex.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ex.SearchCtx(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// armedFaultStore panics with a store fault on every Traj access once
// armed; construction-time accesses (engine build) pass through.
type armedFaultStore struct {
	core.TrajStore
	armed *atomic.Bool
	calls *atomic.Int64
}

func (s *armedFaultStore) Traj(id trajdb.TrajID) *trajdb.Trajectory {
	s.calls.Add(1)
	if s.armed.Load() {
		panic(&trajdb.StoreError{Op: "Traj", ID: id, Err: core.ErrInjected})
	}
	return s.TrajStore.Traj(id)
}

func (s *armedFaultStore) Keywords(id trajdb.TrajID) textual.TermSet {
	s.calls.Add(1)
	if s.armed.Load() {
		panic(&trajdb.StoreError{Op: "Keywords", ID: id, Err: core.ErrInjected})
	}
	return s.TrajStore.Keywords(id)
}

func buildFaulty(t *testing.T, f fixture, partial PartialPolicy, faultShard int) (*Executor, *atomic.Bool) {
	t.Helper()
	armed := &atomic.Bool{}
	calls := &atomic.Int64{}
	ex, err := NewExecutor(f.db, core.Options{}, Config{
		Shards:  4,
		Partial: partial,
		wrapStore: func(shard int, s core.TrajStore) core.TrajStore {
			if shard != faultShard {
				return s
			}
			return &armedFaultStore{TrajStore: s, armed: armed, calls: calls}
		},
	})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	return ex, armed
}

func TestShardedStoreFaultFailsQuery(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(59, 0))
	q := f.randomQuery(rng, 3, 3, 0.5, 5)

	ex, armed := buildFaulty(t, f, PartialFail, 2)
	defer ex.Close()
	armed.Store(true)

	res, _, err := ex.SearchCtx(context.Background(), q)
	if !errors.Is(err, core.ErrStoreFault) {
		t.Fatalf("SearchCtx with faulted shard: err = %v, want ErrStoreFault", err)
	}
	if res != nil {
		t.Fatalf("faulted query returned %d results, want none", len(res))
	}
}

func TestShardedStoreFaultDegrades(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(59, 0))
	q := f.randomQuery(rng, 3, 3, 0.5, 5)
	const faultShard = 2

	ex, armed := buildFaulty(t, f, PartialDegrade, faultShard)
	defer ex.Close()
	armed.Store(true)

	got, _, err := ex.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("degraded SearchCtx: %v", err)
	}
	if len(got) == 0 {
		t.Fatalf("degraded query returned no results")
	}

	// The degraded answer must be exactly the top-k over the healthy
	// shards' trajectories.
	want := rankingWithout(t, f, q, ex.shards[faultShard].globals)
	if err := difftest.Mismatch(got, want, q.K); err != nil {
		t.Errorf("degraded top-k: %v", err)
	}
}

func TestShardedAllShardsFaulted(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(61, 0))
	q := f.randomQuery(rng, 2, 2, 0.5, 5)

	armed := &atomic.Bool{}
	calls := &atomic.Int64{}
	ex, err := NewExecutor(f.db, core.Options{}, Config{
		Shards:  3,
		Partial: PartialDegrade,
		wrapStore: func(_ int, s core.TrajStore) core.TrajStore {
			return &armedFaultStore{TrajStore: s, armed: armed, calls: calls}
		},
	})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer ex.Close()
	armed.Store(true)

	_, _, err = ex.SearchCtx(context.Background(), q)
	if !errors.Is(err, ErrAllShardsFailed) {
		t.Fatalf("all-faulted SearchCtx: err = %v, want ErrAllShardsFailed", err)
	}
	if !errors.Is(err, core.ErrStoreFault) {
		t.Fatalf("all-faulted SearchCtx: err = %v, want it to wrap ErrStoreFault", err)
	}
}

// rankingWithout is the exhaustive ranking of the whole corpus for q
// minus the dropped trajectories: what a scatter that lost their
// partition must answer, k at a time.
func rankingWithout(t *testing.T, f fixture, q core.Query, dropped []trajdb.TrajID) []core.Result {
	t.Helper()
	mono, err := core.NewEngine(f.db, core.Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	q.K = f.db.NumTrajectories()
	ranked, _, err := mono.ExhaustiveSearchCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("exhaustive ranking: %v", err)
	}
	return slices.DeleteFunc(ranked, func(r core.Result) bool { return slices.Contains(dropped, r.Traj) })
}
