package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"uots/internal/core"
	"uots/internal/shard"
)

// Sharding reproduces the F10 scaling experiment: the expansion search
// run monolithically and as a sharded scatter-gather at growing shard
// counts, on both cities. The table records the work decomposition
// behind the shard benchmarks: the summed per-shard work (visited
// trajectories, settled vertices) grows with N because every shard
// re-expands its own Dijkstra frontier, while cross-shard bound-exchange
// prunes (xprunes) claw part of it back. Mean ms is wall-clock on this
// host — on a single core it tracks the total work and grows with N; on
// a machine with ≥ N cores the per-query latency instead drops toward
// the slowest shard's share of the work (see BenchmarkShardedSearch in
// internal/shard).
func Sharding(ctx context.Context, w io.Writer, p Profile) error {
	dss, err := bothDatasets(p)
	if err != nil {
		return err
	}
	counts := []int{1, 2, 4, 8}
	t := NewTable("F10 sharded scatter-gather vs monolithic (expansion, default settings)",
		"dataset", "config", "mean ms", "visited", "settled", "xprunes")
	for _, ds := range dss {
		queries := GenQueries(ds, DefaultQuerySpec(), p.Queries)
		opts := core.Options{Landmarks: ds.Landmarks()}

		mono, err := core.NewEngine(ds.Store, opts)
		if err != nil {
			return err
		}
		cell, err := runShardCell(queries,
			func(q core.Query) (core.SearchStats, error) {
				_, st, err := mono.SearchCtx(ctx, q)
				return st, err
			})
		if err != nil {
			return err
		}
		t.AddRow(ds.Name, "monolithic", fmtMs(cell.ms), fmtCount(cell.visited), fmtCount(cell.settled), "-")

		for _, n := range counts {
			ex, err := shard.NewExecutor(ds.Store, opts, shard.Config{Shards: n})
			if err != nil {
				return err
			}
			cell, err := runShardCell(queries,
				func(q core.Query) (core.SearchStats, error) {
					_, st, err := ex.SearchCtx(ctx, q)
					return st, err
				})
			ex.Close()
			if err != nil {
				return err
			}
			t.AddRow(ds.Name, fmt.Sprintf("N=%d", n),
				fmtMs(cell.ms), fmtCount(cell.visited), fmtCount(cell.settled), fmtCount(cell.xprunes))
		}
	}
	return t.Fprint(w)
}

// shardCell is one (config, workload) measurement, per-query means.
type shardCell struct{ ms, visited, settled, xprunes float64 }

func runShardCell(queries []core.Query, search func(core.Query) (core.SearchStats, error)) (shardCell, error) {
	var cell shardCell
	for _, q := range queries {
		start := time.Now()
		st, err := search(q)
		if err != nil {
			return cell, err
		}
		cell.ms += float64(time.Since(start).Microseconds()) / 1000
		cell.visited += float64(st.VisitedTrajectories)
		cell.settled += float64(st.SettledVertices)
		cell.xprunes += float64(st.SharedBoundPrunes)
	}
	if n := float64(len(queries)); n > 0 {
		cell.ms /= n
		cell.visited /= n
		cell.settled /= n
		cell.xprunes /= n
	}
	return cell, nil
}
