package shard

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"uots/internal/core"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// benchFixture is a trajectory-dense world: with many trajectories per
// vertex, candidate scanning and scoring — the work sharding divides —
// dominates the per-shard Dijkstra work sharding duplicates.
type benchWorld struct {
	db      *trajdb.Store
	queries []core.Query
}

var (
	benchOnce sync.Once
	benchVal  benchWorld
)

func benchFixture(b *testing.B) benchWorld {
	b.Helper()
	benchOnce.Do(func() {
		g := roadnet.BRNLike(0.12, 7)
		vocab := textual.GenerateVocab(6, 60, 1.0, 11)
		db, err := trajdb.Generate(g, trajdb.GenOptions{
			Count:       6000,
			MeanSamples: 24,
			Vocab:       vocab,
			Seed:        17,
		})
		if err != nil {
			panic("bench fixture: " + err.Error())
		}
		rng := rand.New(rand.NewPCG(23, 0))
		regions := trajdb.NewRegionTopics(g.Bounds(), vocab.NumTopics())
		queries := make([]core.Query, 16)
		for i := range queries {
			locs := make([]roadnet.VertexID, 3)
			for j := range locs {
				locs[j] = roadnet.VertexID(rng.IntN(g.NumVertices()))
			}
			topic := regions.TopicOf(g.Point(locs[0]))
			queries[i] = core.Query{
				Locations: locs,
				Keywords:  vocab.DrawQueryTerms(topic, 3, 0.8, rng),
				Lambda:    0.5,
				K:         10,
			}
		}
		benchVal = benchWorld{db: db, queries: queries}
	})
	return benchVal
}

// BenchmarkMonolithicSearch is the single-engine baseline for
// BenchmarkShardedSearch (same fixture, same query mix).
func BenchmarkMonolithicSearch(b *testing.B) {
	w := benchFixture(b)
	eng, err := core.NewEngine(w.db, core.Options{})
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.queries[i%len(w.queries)]
		if _, _, err := eng.SearchCtx(ctx, q); err != nil {
			b.Fatalf("SearchCtx: %v", err)
		}
	}
}

// BenchmarkShardedSearch measures scatter-gather wall-clock per query
// across shard counts, with the work behind it:
// settles/op is the Dijkstra work summed over the shards (every shard
// re-expands its own frontier, so it grows with N) and xprunes/op the
// candidates the cross-shard bound exchange killed. Compare with
// BenchmarkMonolithicSearch on the same fixture; the numbers recorded in
// EXPERIMENTS.md ("Audit verdicts") name the host's core count.
func BenchmarkShardedSearch(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchExecutor(b, Config{Shards: n})
		})
	}
}

// BenchmarkShardedSearchNoBound isolates what the cross-shard bound
// exchange buys: BenchmarkShardedSearch's shards=4 cell with the
// exchange off.
func BenchmarkShardedSearchNoBound(b *testing.B) {
	benchExecutor(b, Config{Shards: 4, disableSharedBound: true})
}

func benchExecutor(b *testing.B, cfg Config) {
	w := benchFixture(b)
	ex, err := NewExecutor(w.db, core.Options{}, cfg)
	if err != nil {
		b.Fatalf("NewExecutor: %v", err)
	}
	defer ex.Close()
	ctx := context.Background()
	var work core.SearchStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.queries[i%len(w.queries)]
		_, st, err := ex.SearchCtx(ctx, q)
		if err != nil {
			b.Fatalf("SearchCtx: %v", err)
		}
		work.Add(st)
	}
	b.ReportMetric(float64(work.SettledVertices)/float64(b.N), "settles/op")
	b.ReportMetric(float64(work.SharedBoundPrunes)/float64(b.N), "xprunes/op")
}
