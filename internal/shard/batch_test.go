package shard

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"

	"uots/internal/core"
	"uots/internal/difftest"
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
		if err := difftest.Mismatch(o.Results, want, len(want)); err != nil {
			t.Errorf("degraded q=%d: %v", i, err)
		}
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
