package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"

	"uots/internal/core"
	"uots/internal/roadnet"
)

// BatchShare reproduces the F11 batch-planner experiment: a fixed query
// batch run with and without cross-query expansion sharing, at growing
// source-overlap rates. The workload remaps query locations onto a
// shrinking pool of hotspot vertices — the serving shape where many
// users ask about the same few places — while "uniform" keeps the
// generator's natural city-wide spread. The table records the planner
// counters behind the uots_batch_* metrics: served settles (expansion
// work the queries consumed) versus frontier settles (Dijkstra work
// actually performed), whose ratio is the fraction of vertex expansions
// sharing eliminated. Results are byte-identical either way (the
// planner's correctness contract, cross-validated in internal/core), so
// the saved column is pure overhead removed.
func BatchShare(ctx context.Context, w io.Writer, p Profile) error {
	dss, err := bothDatasets(p)
	if err != nil {
		return err
	}
	batchSize := p.Queries * 4

	t := NewTable("F11 shared-expansion batch planner vs independent execution (expansion, default settings)",
		"dataset", "workload", "refs", "sources", "served", "frontier", "saved", "shared ms", "indep ms")
	for _, ds := range dss {
		e, err := core.NewEngine(ds.Store, core.Options{Landmarks: ds.Landmarks()})
		if err != nil {
			return err
		}
		for _, cfg := range []struct {
			name string
			pool int // 0 = natural city-wide workload
		}{
			{"uniform", 0},
			{"pool=64", 64},
			{"pool=16", 16},
			{"pool=4", 4},
		} {
			queries := GenQueries(ds, DefaultQuerySpec(), batchSize)
			if cfg.pool > 0 {
				remapToHotspots(queries, ds, cfg.pool)
			}

			shared, sstats, err := e.SearchBatch(ctx, queries, core.BatchOptions{SharedExpansion: true})
			if err != nil {
				return err
			}
			if n := countFailed(shared); n > 0 {
				return fmt.Errorf("experiments: %d shared batch queries failed", n)
			}
			indep, istats, err := e.SearchBatch(ctx, queries, core.BatchOptions{})
			if err != nil {
				return err
			}
			if n := countFailed(indep); n > 0 {
				return fmt.Errorf("experiments: %d independent batch queries failed", n)
			}
			saved := 0.0
			if sstats.ServedSettles > 0 {
				saved = 1 - float64(sstats.FrontierSettles)/float64(sstats.ServedSettles)
			}
			t.AddRow(ds.Name, cfg.name,
				fmt.Sprint(sstats.SourceRefs), fmt.Sprint(sstats.DistinctSources),
				fmt.Sprint(sstats.ServedSettles), fmt.Sprint(sstats.FrontierSettles),
				fmtRatio(saved),
				fmtMs(float64(sstats.WallClock.Microseconds())/1000),
				fmtMs(float64(istats.WallClock.Microseconds())/1000))
		}
	}
	return t.Fprint(w)
}

// remapToHotspots rewrites every query location onto a pool of n
// hotspot vertices drawn deterministically from the network, raising
// the batch's source-overlap rate as the pool shrinks.
func remapToHotspots(queries []core.Query, ds *Dataset, n int) {
	rng := rand.New(rand.NewPCG(uint64(n), 0x5eed))
	pool := make([]roadnet.VertexID, n)
	for i := range pool {
		pool[i] = roadnet.VertexID(rng.IntN(ds.Graph.NumVertices()))
	}
	for qi := range queries {
		for j := range queries[qi].Locations {
			queries[qi].Locations[j] = pool[rng.IntN(n)]
		}
	}
}

// countFailed reports the failed slots of a batch run.
func countFailed(out []core.BatchResult) int {
	n := 0
	for _, o := range out {
		if o.Err != nil {
			n++
		}
	}
	return n
}
