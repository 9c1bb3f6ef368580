package core

import (
	"context"
	"math"

	"uots/internal/roadnet"
	"uots/internal/trajdb"
)

// Order-aware search (an extension: the research line lists
// visiting-sequence matching as future work). The query locations are
// interpreted as an ordered itinerary o₁ → o₂ → … → o_n, and the spatial
// similarity becomes
//
//	SimS↑(q, τ) = (1/|O|) · max over j₁ ≤ j₂ ≤ … ≤ j_n of Σᵢ e^{−sd(oᵢ, p_{jᵢ})/γ},
//
// the best order-preserving assignment of query locations to trajectory
// samples. Because every assignment is dominated by the unconstrained
// minima, SimS↑ ≤ SimS: the unordered combined score upper-bounds the
// ordered one. The order-aware search is therefore the expansion search
// with another result sink. It offers the top k a trip's ordered score,
// and its bar, the k-th ordered score, holds every unordered upper bound
// (prunes, probes, termination) to an admissible test.

// OrderAwareEvaluate computes the exact order-aware Result of one
// trajectory: per-(location, sample) network distances from a fresh
// query-rooted search (one Dijkstra per location, each run until it has
// settled every vertex of the trajectory), then an O(|O|·m) dynamic
// program for the best order-preserving assignment.
func (e *Engine) OrderAwareEvaluate(q Query, id trajdb.TrajID) (res Result, err error) {
	defer recoverStoreFault(nil, &err)
	q, err = q.normalize(e.g)
	if err != nil {
		return Result{}, err
	}
	if id < 0 || int(id) >= e.db.NumTrajectories() {
		return Result{}, ErrTrajRange
	}
	var stats SearchStats
	scr := &scratch{goal: roadnet.NewGoalSearch(e.g, q.Locations)}
	return e.orderAwareResult(scr, q, id, make([]float64, len(q.Locations)), canceller{}, &stats)
}

// orderAwareResult scores trajectory id under the order-aware similarity,
// reading its distances from scr's goal search, the request's
// query-rooted search: each location's run is stepped until it has
// settled every vertex of the trajectory (or exhausted its component).
// The run's settles are added to stats, and cancel is polled every
// cancelPollEvery of them, counted by stats.ProbeSettled as the text
// probes count theirs. The kernel table and the dynamic program's rows
// are scr's; the unordered minima, reported for context, are written to
// dists, which becomes the Result's. Each scoring counts as a probe.
func (e *Engine) orderAwareResult(scr *scratch, q Query, id trajdb.TrajID, dists []float64, cancel canceller, stats *SearchStats) (Result, error) {
	stats.Probes++
	gs := scr.goal
	traj := e.db.Traj(id)
	m := traj.Len()
	n := len(q.Locations)

	// kernelAt[i·m+j] = e^{−sd(oᵢ, p_j)/γ}; unreached samples contribute 0.
	scr.kernelAt = resize(scr.kernelAt, n*m)
	kernelAt := scr.kernelAt
	uniq := e.db.UniqueVertices(id)
	gs.Target(uniq)
	for i := range q.Locations {
		remaining := 0
		for _, v := range uniq {
			if _, ok := gs.Dist(i, v); !ok {
				remaining++
			}
		}
		for remaining > 0 {
			if stats.ProbeSettled%cancelPollEvery == 0 {
				if err := cancel.check(); err != nil {
					return Result{}, err
				}
			}
			_, hit, ok := gs.Step(i)
			if !ok {
				break
			}
			stats.ProbeSettled++
			stats.SettledVertices++
			if hit {
				remaining--
			}
		}
		row := kernelAt[i*m : (i+1)*m]
		best := math.Inf(1)
		for j, s := range traj.Samples {
			if d, ok := gs.Dist(i, s.V); ok {
				row[j] = e.kernel(d)
				if d < best {
					best = d
				}
			}
		}
		dists[i] = best
	}

	// DP over (location index, sample index): dp[j] after processing
	// location i = best Σ for o₁..oᵢ assigned within samples p₁..p_j.
	scr.dp, scr.next = resize(scr.dp, m), resize(scr.next, m)
	dp, next := scr.dp, scr.next
	run := math.Inf(-1)
	for j := 0; j < m; j++ {
		if kernelAt[j] > run {
			run = kernelAt[j]
		}
		dp[j] = run
	}
	for i := 1; i < n; i++ {
		run = math.Inf(-1)
		for j := 0; j < m; j++ {
			// Assign oᵢ to p_j on top of the best prefix ending at or
			// before j for the previous location (jᵢ₋₁ ≤ jᵢ allowed equal).
			cand := dp[j] + kernelAt[i*m+j]
			if j > 0 && next[j-1] > cand {
				cand = next[j-1]
			}
			if cand > run {
				run = cand
			}
			next[j] = run
		}
		dp, next = next, dp
	}
	spatial := dp[m-1] / float64(n)
	if math.IsInf(spatial, -1) || math.IsNaN(spatial) {
		spatial = 0
	}
	text := e.textScore(q.Keywords, id)
	return Result{
		Traj:    id,
		Score:   combine(q.Lambda, spatial, text),
		Spatial: spatial,
		Textual: text,
		Dists:   dists,
	}, nil
}

// OrderAwareSearchCtx answers a top-k query under the order-aware
// spatial similarity with one expansion search whose result sink holds
// the ordered top k: a completed trip whose unordered score can still
// enter is scored under the ordered similarity, and the k-th ordered
// score is the bar every unordered upper bound is tested against. Since
// the unordered score upper-bounds the ordered one, every prune and the
// termination test stay exact. Cancellation is as in SearchCtx; an
// ordered scoring polls ctx every cancelPollEvery settles of its
// query-rooted search.
func (e *Engine) OrderAwareSearchCtx(ctx context.Context, q Query) ([]Result, SearchStats, error) {
	return e.run(ctx, Request{Query: q, OrderAware: true}, AlgoExpansion)
}
