package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"uots/internal/core"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// TestShardedMatchesMonolithic is the subsystem's ground truth: every
// search variant, over every shard count, returns results byte-identical
// to the monolithic engine on the same store — under the hash and under
// three skewed layouts no hash produces (skewedAssignments): every answer
// of every request on one shard, an empty shard, one trajectory per shard.
func TestShardedMatchesMonolithic(t *testing.T) {
	f := testFixture(t)
	mono, err := core.NewEngine(f.db, core.Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	rng := rand.New(rand.NewPCG(41, 0))
	queries := make([]core.Query, 6)
	for i := range queries {
		queries[i] = f.randomQuery(rng, 3, 3, 0.5, 5)
	}
	queries = append(queries,
		f.randomQuery(rng, 1, 0, 1.0, 8),  // pure spatial
		f.randomQuery(rng, 2, 4, 0.0, 5),  // pure textual
		f.randomQuery(rng, 4, 2, 0.7, 25), // k wider than any one shard's share
	)
	window := core.TimeWindow{From: 6 * 3600, To: 18 * 3600}
	theta := 0.35
	divOpts := core.DiversifyOptions{Mu: 0.4}

	// The monolithic answers, once; every trajectory in any of them is
	// hot, so "hot-shard" leaves the other shards nothing but losers.
	ctx := context.Background()
	type want struct {
		tag string
		req core.Request
		res []core.Result
		err error
	}
	var wants []want
	hot := make(map[trajdb.TrajID]bool)
	for qi, q := range queries {
		for _, req := range []core.Request{
			{Query: q},
			{Query: q, Theta: &theta},
			{Query: q, Window: &window},
			{Query: q, OrderAware: true},
			{Query: q, Diversify: &divOpts},
		} {
			res, _, err := req.Run(ctx, mono)
			wants = append(wants, want{fmt.Sprintf("q=%d/%s", qi, req.Variant()), req, res, err})
			for _, r := range res {
				hot[r.Traj] = true
			}
		}
	}

	total := f.db.NumTrajectories()
	assigns := skewedAssignments(hot)
	assigns["hash"] = nil
	for name, assign := range assigns {
		shards := []int{1, 2, 4, 7}
		if name == "round-robin" {
			shards = []int{3, total} // the latter: one trajectory per shard
		}
		for _, n := range shards {
			ex, err := NewExecutor(f.db, core.Options{}, Config{Shards: n, assign: assign})
			if err != nil {
				t.Fatalf("NewExecutor(%s, %d): %v", name, n, err)
			}
			wants := wants
			if n == total {
				wants = wants[:15] // 400 engines a request: three queries' variants will do
			}
			for _, w := range wants {
				got, _, gotErr := w.req.Run(ctx, ex)
				checkSame(t, fmt.Sprintf("%s/n=%d/%s", name, n, w.tag), got, gotErr, w.res, w.err)
			}
			ex.Close()
		}
	}
}

func checkSame(t *testing.T, label string, got []core.Result, gotErr error, want []core.Result, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, want %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	sameResults(t, label, got, want)
}

// TestShardedDisabledBoundMatches checks the bound-exchange ablation
// changes pruning work only, never answers.
func TestShardedDisabledBoundMatches(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(43, 0))
	q := f.randomQuery(rng, 3, 3, 0.6, 10)

	on, err := NewExecutor(f.db, core.Options{}, Config{Shards: 4})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer on.Close()
	off, err := NewExecutor(f.db, core.Options{}, Config{Shards: 4, disableSharedBound: true})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer off.Close()

	rOn, _, err := on.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("SearchCtx (bound on): %v", err)
	}
	rOff, _, err := off.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("SearchCtx (bound off): %v", err)
	}
	sameResults(t, "bound ablation", rOn, rOff)
}

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
	// shards' trajectories: rank the whole corpus monolithically, drop
	// the faulted partition, and keep the first k.
	mono, err := core.NewEngine(f.db, core.Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	allQ := q
	allQ.K = f.db.NumTrajectories()
	ranked, _, err := mono.SearchCtx(context.Background(), allQ)
	if err != nil {
		t.Fatalf("monolithic full ranking: %v", err)
	}
	faulted := make(map[trajdb.TrajID]bool)
	for _, id := range ex.shards[faultShard].globals {
		faulted[id] = true
	}
	var want []core.Result
	for _, r := range ranked {
		if faulted[r.Traj] {
			continue
		}
		want = append(want, r)
		if len(want) == q.K {
			break
		}
	}
	sameResults(t, "degraded top-k", got, want)
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
