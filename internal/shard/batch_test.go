package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"uots/internal/core"
	"uots/internal/roadnet"
)

// batchQueries draws n queries whose locations come from a small pool
// of vertices, so the batch has the cross-query source overlap the
// shared-expansion planner exploits.
func batchQueries(f fixture, rng *rand.Rand, n, poolSize int) []core.Query {
	pool := make([]roadnet.VertexID, poolSize)
	for i := range pool {
		pool[i] = roadnet.VertexID(rng.IntN(f.g.NumVertices()))
	}
	queries := make([]core.Query, n)
	for i := range queries {
		q := f.randomQuery(rng, 2+rng.IntN(2), 3, 0.5, 5)
		for j := range q.Locations {
			q.Locations[j] = pool[rng.IntN(len(pool))]
		}
		queries[i] = q
	}
	return queries
}

// TestShardBatchMatchesMonolithic cross-validates the sharded batch
// against the monolithic engine: for every shard count, with and
// without shared expansion, every slot's results must match the
// monolithic single-query answer.
func TestShardBatchMatchesMonolithic(t *testing.T) {
	f := testFixture(t)
	mono, err := core.NewEngine(f.db, core.Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	rng := rand.New(rand.NewPCG(101, 0))
	queries := batchQueries(f, rng, 10, 4)
	queries = append(queries,
		f.randomQuery(rng, 1, 0, 1.0, 8),  // pure spatial
		f.randomQuery(rng, 2, 4, 0.0, 5),  // pure textual (text-only fast path)
		f.randomQuery(rng, 4, 2, 0.7, 25), // k wider than any one shard's share
	)
	want := make([][]core.Result, len(queries))
	for i, q := range queries {
		r, _, err := mono.SearchCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("monolithic query %d: %v", i, err)
		}
		want[i] = r
	}

	ctx := context.Background()
	for _, n := range []int{1, 2, 4} {
		ex, err := NewExecutor(f.db, core.Options{}, Config{Shards: n})
		if err != nil {
			t.Fatalf("NewExecutor(%d): %v", n, err)
		}
		for _, shared := range []bool{false, true} {
			out, stats, err := ex.SearchBatch(ctx, queries, core.BatchOptions{
				Workers: 2, SharedExpansion: shared})
			if err != nil {
				t.Fatalf("n=%d shared=%v SearchBatch: %v", n, shared, err)
			}
			if stats.Queries != len(queries) || stats.Failed != 0 {
				t.Fatalf("n=%d shared=%v stats %+v, want %d clean queries",
					n, shared, stats, len(queries))
			}
			for i, o := range out {
				if o.Err != nil {
					t.Fatalf("n=%d shared=%v entry %d: %v", n, shared, i, o.Err)
				}
				if o.Index != i {
					t.Errorf("n=%d shared=%v entry %d carries index %d", n, shared, i, o.Index)
				}
				sameResults(t, fmt.Sprintf("n=%d shared=%v q=%d", n, shared, i), o.Results, want[i])
			}
			if shared {
				// The hotspot pool guarantees shared frontiers did real work
				// on every shard: more settles served than performed.
				if stats.ServedSettles <= stats.FrontierSettles {
					t.Errorf("n=%d: no expansion saving recorded: served=%d frontier=%d",
						n, stats.ServedSettles, stats.FrontierSettles)
				}
			} else if stats.ServedSettles != 0 || stats.DistinctSources != 0 {
				t.Errorf("n=%d: independent batch reported planner counters: %+v", n, stats)
			}
		}
		ex.Close()
	}
}

// TestShardBatchPartialDegrade verifies per-query degradation: with one
// shard faulted under PartialDegrade, every batch slot is served from
// the healthy shards and matches the executor's own degraded
// single-query answer.
func TestShardBatchPartialDegrade(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(103, 0))
	queries := batchQueries(f, rng, 6, 3)

	ex, armed := buildFaulty(t, f, PartialDegrade, 1)
	defer ex.Close()
	armed.Store(true)

	out, stats, err := ex.SearchBatch(context.Background(), queries, core.BatchOptions{SharedExpansion: true})
	if err != nil {
		t.Fatalf("degraded SearchBatch: %v", err)
	}
	if stats.Failed != 0 {
		t.Fatalf("degraded batch reported %d failures, want 0", stats.Failed)
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("entry %d: %v", i, o.Err)
		}
		want, _, err := ex.SearchCtx(context.Background(), queries[i])
		if err != nil {
			t.Fatalf("degraded single query %d: %v", i, err)
		}
		sameResults(t, fmt.Sprintf("degraded q=%d", i), o.Results, want)
	}
}

// TestShardBatchPartialFail verifies the strict policy: with one shard
// faulted under PartialFail, every slot that needed that shard fails
// with ErrStoreFault, and the failures are per-slot — the batch call
// itself succeeds.
func TestShardBatchPartialFail(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(104, 0))
	queries := batchQueries(f, rng, 6, 3)

	ex, armed := buildFaulty(t, f, PartialFail, 1)
	defer ex.Close()
	armed.Store(true)

	out, stats, err := ex.SearchBatch(context.Background(), queries, core.BatchOptions{})
	if err != nil {
		t.Fatalf("SearchBatch: %v", err)
	}
	failed := 0
	for i, o := range out {
		if o.Err == nil {
			continue
		}
		if !errors.Is(o.Err, core.ErrStoreFault) {
			t.Errorf("entry %d: err %v does not wrap ErrStoreFault", i, o.Err)
		}
		failed++
	}
	if failed == 0 {
		t.Fatal("no slot failed although a shard faults on every record access")
	}
	if stats.Failed != failed {
		t.Errorf("stats.Failed = %d, want %d", stats.Failed, failed)
	}
}

// TestShardBatchCancellation cancels a batch mid-flight (the first
// settle of any shard triggers it) and verifies the sharded batch
// matches the monolithic contract: the call returns ctx.Err() and every
// slot carries an error or a finished result.
func TestShardBatchCancellation(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(105, 0))
	queries := batchQueries(f, rng, 12, 3)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	ex, err := NewExecutor(f.db, core.Options{}, Config{
		Shards: 3,
		wrapStore: func(_ int, s core.TrajStore) core.TrajStore {
			return &cancelStore{TrajStore: s, once: &once, cancel: cancel}
		},
	})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer ex.Close()

	out, stats, err := ex.SearchBatch(ctx, queries, core.BatchOptions{SharedExpansion: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	cancelled := 0
	for i, o := range out {
		if errors.Is(o.Err, context.Canceled) {
			cancelled++
			continue
		}
		if o.Err != nil {
			t.Errorf("entry %d: unexpected error %v", i, o.Err)
		}
	}
	if cancelled == 0 {
		t.Error("no slot recorded context.Canceled")
	}
	if stats.Failed < cancelled {
		t.Errorf("stats.Failed = %d, want ≥ %d", stats.Failed, cancelled)
	}
}
