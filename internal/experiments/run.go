package experiments

import (
	"context"
	"fmt"
	"time"

	"uots/internal/core"
)

// AlgoConfig names one algorithm configuration under measurement.
type AlgoConfig struct {
	Name string
	Kind core.Algorithm
	Opts core.Options
}

// DefaultAlgos returns the evaluation's four standing configurations:
// the paper's expansion search, its no-heuristic ablation, and the two
// baselines.
func DefaultAlgos() []AlgoConfig {
	return []AlgoConfig{
		{Name: "expansion", Kind: core.AlgoExpansion, Opts: core.Options{Scheduling: core.ScheduleHeuristic}},
		{Name: "expansion-w/o-h", Kind: core.AlgoExpansion, Opts: core.Options{Scheduling: core.ScheduleRoundRobin}},
		{Name: "textfirst", Kind: core.AlgoTextFirst},
		{Name: "exhaustive", Kind: core.AlgoExhaustive},
	}
}

// Aggregate is the measurement of one (algorithm, workload cell) pair,
// averaged over the cell's queries.
type Aggregate struct {
	Algo           string
	Queries        int
	MeanMs         float64 // mean per-query CPU time, milliseconds
	MeanVisited    float64 // mean visited trajectories (the paper's access metric)
	MeanCandidates float64
	MeanSettled    float64 // mean Dijkstra-settled vertices
	EarlyTermRate  float64 // fraction of queries that terminated early
	CandRatio      float64 // MeanCandidates / |T| (pruning table)
	VisitRatio     float64 // MeanVisited / |T|
}

// Measure runs every query under one algorithm configuration and averages
// the work counters. theta > 0 switches the expansion/exhaustive
// algorithms to their threshold variants (TextFirst has no threshold
// variant and keeps using top-k). Cancelling ctx aborts the in-flight
// search and returns its error.
func Measure(ctx context.Context, ds *Dataset, cfg AlgoConfig, queries []core.Query, theta float64) (Aggregate, error) {
	e, err := core.NewEngine(ds.Store, cfg.Opts)
	if err != nil {
		return Aggregate{}, fmt.Errorf("experiments: %s: %w", cfg.Name, err)
	}
	agg := Aggregate{Algo: cfg.Name, Queries: len(queries)}
	var totalMs float64
	for _, q := range queries {
		var stats core.SearchStats
		var runErr error
		start := time.Now()
		switch {
		case theta > 0 && cfg.Kind == core.AlgoExpansion:
			_, stats, runErr = e.SearchThresholdCtx(ctx, q, theta)
		case theta > 0 && cfg.Kind == core.AlgoExhaustive:
			_, stats, runErr = e.ExhaustiveThresholdCtx(ctx, q, theta)
		case cfg.Kind == core.AlgoExhaustive:
			_, stats, runErr = e.ExhaustiveSearchCtx(ctx, q)
		case cfg.Kind == core.AlgoTextFirst:
			_, stats, runErr = e.TextFirstSearchCtx(ctx, q)
		default:
			_, stats, runErr = e.SearchCtx(ctx, q)
		}
		if runErr != nil {
			return Aggregate{}, fmt.Errorf("experiments: %s: %w", cfg.Name, runErr)
		}
		totalMs += float64(time.Since(start).Microseconds()) / 1000.0
		agg.MeanVisited += float64(stats.VisitedTrajectories)
		agg.MeanCandidates += float64(stats.Candidates)
		agg.MeanSettled += float64(stats.SettledVertices)
		if stats.EarlyTerminated {
			agg.EarlyTermRate++
		}
	}
	n := float64(len(queries))
	if n > 0 {
		agg.MeanMs = totalMs / n
		agg.MeanVisited /= n
		agg.MeanCandidates /= n
		agg.MeanSettled /= n
		agg.EarlyTermRate /= n
	}
	if t := float64(ds.Store.NumTrajectories()); t > 0 {
		agg.CandRatio = agg.MeanCandidates / t
		agg.VisitRatio = agg.MeanVisited / t
	}
	return agg, nil
}

// MeasureAll measures every configuration over the same workload.
func MeasureAll(ctx context.Context, ds *Dataset, cfgs []AlgoConfig, queries []core.Query, theta float64) ([]Aggregate, error) {
	out := make([]Aggregate, 0, len(cfgs))
	for _, cfg := range cfgs {
		agg, err := Measure(ctx, ds, cfg, queries, theta)
		if err != nil {
			return nil, err
		}
		out = append(out, agg)
	}
	return out, nil
}
