package core

import (
	"context"
	"math"
	"sort"

	"uots/internal/pqueue"
	"uots/internal/roadnet"
	"uots/internal/trajdb"
)

// ExhaustiveSearchCtx answers a top-k UOTS query with the brute-force
// comparator: one full Dijkstra per query location (exact distance fields
// over the whole network), then an exact score for every trajectory in the
// store. It visits every trajectory and serves as the ground truth the
// expansion algorithm is validated against, and as the "no pruning" end of
// the experiment spectrum. Both the Dijkstra field computation and the
// scoring scan poll ctx at bounded intervals (see SearchCtx).
func (e *Engine) ExhaustiveSearchCtx(ctx context.Context, q Query) ([]Result, SearchStats, error) {
	return e.run(ctx, Request{Query: q}, AlgoExhaustive)
}

// ExhaustiveThresholdCtx answers the threshold variant exhaustively.
func (e *Engine) ExhaustiveThresholdCtx(ctx context.Context, q Query, theta float64) ([]Result, SearchStats, error) {
	return e.run(ctx, Request{Query: q, Theta: &theta}, AlgoExhaustive)
}

// exhaustive is the brute-force candidate generator: the top q.K of a
// full scan, or with theta > 0 everything scoring at least theta.
func (e *Engine) exhaustive(ctx context.Context, q Query, theta float64) ([]Result, SearchStats, error) {
	var results []Result
	topk := pqueue.NewTopK[Result](q.K)
	stats, err := e.exhaustiveScan(ctx, q, func(r Result) {
		if theta == 0 {
			topk.Offer(r.Score, int64(r.Traj), r)
		} else if r.Score >= theta {
			results = append(results, r)
		}
	})
	if err != nil {
		return nil, stats, err
	}
	if theta == 0 {
		return topk.Results(), stats, nil
	}
	sortResults(results)
	return results, stats, nil
}

// exhaustiveScan computes the exact Result of every trajectory and feeds
// it to sink, returning the work counters. Cancellation is polled every
// cancelPollEvery scored trajectories and every 1024 settled vertices, so
// even the full-network Dijkstra phase aborts promptly.
func (e *Engine) exhaustiveScan(ctx context.Context, q Query, sink func(Result)) (SearchStats, error) {
	var stats SearchStats
	cancel := newCanceller(ctx)
	n := e.db.NumTrajectories()
	fields := make([][]float64, len(q.Locations))
	sssp := roadnet.NewSSSP(e.g)
	var cancelErr error
	for i, o := range q.Locations {
		sssp.RunUntil(o, func(roadnet.VertexID, float64) bool {
			stats.SettledVertices++
			if stats.SettledVertices%1024 == 0 {
				if cancelErr = cancel.check(); cancelErr != nil {
					return false
				}
			}
			return true
		})
		if cancelErr != nil {
			return stats, cancelErr
		}
		field := make([]float64, e.g.NumVertices())
		for v := range field {
			field[v] = sssp.Dist(roadnet.VertexID(v))
		}
		fields[i] = field
	}
	for id := 0; id < n; id++ {
		if id%cancelPollEvery == 0 {
			if err := cancel.check(); err != nil {
				stats.VisitedTrajectories, stats.Candidates, stats.TextScored = id, id, id
				return stats, err
			}
		}
		tid := trajdb.TrajID(id)
		verts := e.db.UniqueVertices(tid)
		dists := make([]float64, len(q.Locations))
		for i := range dists {
			best := math.Inf(1)
			for _, v := range verts {
				if d := fields[i][v]; d < best {
					best = d
				}
			}
			dists[i] = best
		}
		spatial := e.spatialFromDists(dists)
		text := e.textScore(q.Keywords, tid)
		sink(Result{
			Traj:    tid,
			Score:   combine(q.Lambda, spatial, text),
			Spatial: spatial,
			Textual: text,
			Dists:   dists,
		})
	}
	stats.VisitedTrajectories = n
	stats.Candidates = n
	stats.TextScored = n
	return stats, nil
}

// TextFirstSearchCtx answers a top-k UOTS query with the
// one-domain-first baseline: trajectories are visited in descending
// textual-similarity order; each visit computes the exact spatial
// similarity; the scan stops once even a spatially perfect trajectory
// could not beat the current k-th best. Because a trajectory with zero
// textual score can still win on spatial similarity alone, the baseline
// must fall back to scanning the zero-text tail whenever the bar allows
// it — the structural weakness the paper's expansion algorithm removes.
// The candidate scan polls ctx between per-trajectory evaluations and
// inside each evaluation's distance resolution (see SearchCtx).
func (e *Engine) TextFirstSearchCtx(ctx context.Context, q Query) ([]Result, SearchStats, error) {
	return e.run(ctx, Request{Query: q}, AlgoTextFirst)
}

// textFirst is the textual-order candidate generator. Each visit's
// distances come from scr's goal search, the request's one Dijkstra per
// query location, resumed from visit to visit; scr's dense text table
// marks the trajectories phase 1 ranks, so phase 2 skips them.
func (e *Engine) textFirst(ctx context.Context, q Query, scr *scratch) ([]Result, SearchStats, error) {
	var stats SearchStats
	cancel := newCanceller(ctx)
	topk := pqueue.NewTopK[Result](q.K)
	evaluate := func(tid trajdb.TrajID, text float64) error {
		stats.VisitedTrajectories++
		dists := make([]float64, len(q.Locations))
		if err := e.resolveDists(scr.goal, tid, dists, cancel, &stats); err != nil {
			return err
		}
		spatial := e.spatialFromDists(dists)
		stats.Candidates++
		topk.Offer(combine(q.Lambda, spatial, text), int64(tid), Result{
			Traj:    tid,
			Score:   combine(q.Lambda, spatial, text),
			Spatial: spatial,
			Textual: text,
			Dists:   dists,
		})
		return nil
	}

	// Phase 1: descending textual order.
	if len(q.Keywords) > 0 {
		docs := e.db.TextIndex().DocsWithAny(q.Keywords)
		stats.TextScored = len(docs)
		for i, d := range docs {
			if i%cancelPollEvery == 0 {
				if err := cancel.check(); err != nil {
					return nil, stats, err
				}
			}
			// Every document shares a query keyword: its score is positive.
			id := trajdb.TrajID(d)
			scr.text[id] = e.textScore(q.Keywords, id)
			scr.textIDs = append(scr.textIDs, id)
		}
		ids := scr.textIDs
		sort.Slice(ids, func(i, j int) bool {
			if ti, tj := scr.text[ids[i]], scr.text[ids[j]]; ti != tj {
				return ti > tj
			}
			return ids[i] < ids[j]
		})
	}
	for _, id := range scr.textIDs {
		if err := cancel.check(); err != nil {
			return nil, stats, err
		}
		if bar, ok := topk.Threshold(); ok && combine(q.Lambda, 1, scr.text[id]) < bar {
			stats.EarlyTerminated = true
			break
		}
		if err := evaluate(id, scr.text[id]); err != nil {
			return nil, stats, err
		}
	}

	// Phase 2: the zero-text tail, unless even a spatially perfect
	// zero-text trajectory cannot qualify.
	if bar, ok := topk.Threshold(); !ok || combine(q.Lambda, 1, 0) >= bar {
		for id := 0; id < e.db.NumTrajectories(); id++ {
			tid := trajdb.TrajID(id)
			if scr.text[tid] > 0 {
				continue
			}
			if id%cancelPollEvery == 0 {
				if err := cancel.check(); err != nil {
					return nil, stats, err
				}
			}
			if bar, ok := topk.Threshold(); ok && combine(q.Lambda, 1, 0) < bar {
				stats.EarlyTerminated = true
				break
			}
			if err := evaluate(tid, 0); err != nil {
				return nil, stats, err
			}
		}
	} else {
		stats.EarlyTerminated = true
	}

	return topk.Results(), stats, nil
}
