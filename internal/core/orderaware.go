package core

import (
	"context"
	"math"

	"uots/internal/obs"
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
// minima, SimS↑ ≤ SimS, so the unordered top-K′ retrieval is an admissible
// filter: once the K′-th unordered combined score cannot beat the k-th
// ordered one, the ordered top-k is exact.

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
// dists, which becomes the Result's.
func (e *Engine) orderAwareResult(scr *scratch, q Query, id trajdb.TrajID, dists []float64, cancel canceller, stats *SearchStats) (Result, error) {
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
// spatial similarity. It retrieves unordered top-K′ candidates with the
// expansion search, reranks them with the exact order-aware score, and
// doubles K′ until the unordered bound certifies the ordered top-k — an
// exact algorithm, since the unordered score upper-bounds the ordered one.
// The unordered retrieval polls ctx, and the rerank polls it every
// cancelPollEvery settles of its query-rooted search.
func (e *Engine) OrderAwareSearchCtx(ctx context.Context, q Query) ([]Result, SearchStats, error) {
	return e.run(ctx, Request{Query: q, OrderAware: true}, AlgoExpansion)
}

// rerankOrdered is the order-aware post-stage: retrieve the unordered
// top-K′ candidates of the normalized q, rerank them with the exact
// order-aware score, and double K′ until the unordered bound certifies
// the ordered top-k. One query-rooted search is the request's only
// distance source: every round's retrieval expands and probes its runs,
// and every reranked trajectory reads its distances from them, so a
// vertex any of them settled costs no second settle. The reranked list
// and its distances are cut from scr, the request's scratch; the
// returned top k is copied out.
func (e *Engine) rerankOrdered(ctx context.Context, q Query, algo Algorithm, scr *scratch) ([]Result, SearchStats, error) {
	cancel := newCanceller(ctx)
	trace := tracerFrom(ctx)
	var total SearchStats
	n := len(q.Locations)
	kPrime := q.K * 4
	if kPrime < 16 {
		kPrime = 16
	}
	if q.Lambda == 0 {
		// Both scores are the textual one, so the unordered top k is the
		// ordered top k, certified in the first round: retrieve and score
		// only those.
		kPrime = q.K
	}
	for round := 0; ; round++ {
		uq := q
		uq.K = kPrime
		unordered, stats, err := e.candidates(ctx, uq, 0, nil, algo, scr)
		total.Add(stats)
		if err != nil {
			return nil, total, err
		}

		scr.reranked = resize(scr.reranked, len(unordered))
		scr.rerankDists = resize(scr.rerankDists, len(unordered)*n)
		reranked := scr.reranked
		for i, r := range unordered {
			dists := scr.rerankDists[i*n : (i+1)*n : (i+1)*n]
			if reranked[i], err = e.orderAwareResult(scr, q, r.Traj, dists, cancel, &total); err != nil {
				return nil, total, err
			}
			total.Probes++
		}
		sortResults(reranked)
		if len(reranked) > q.K {
			reranked = reranked[:q.K]
		}
		if trace != nil {
			bound := 0.0
			if len(unordered) > 0 {
				bound = unordered[len(unordered)-1].Score
			}
			trace.Emit(obs.SpanEvent{Step: round, Kind: TraceRerank, Source: -1, Traj: -1,
				Value: float64(kPrime), Extra: bound})
		}

		// Certification: every trajectory outside the unordered top-K′ has
		// unordered score ≤ the K′-th unordered score, and ordered ≤
		// unordered, so if the k-th ordered beats that bound we are done.
		// With fewer than K′ the store had no more: everything was
		// considered.
		total.EarlyTerminated = len(unordered) == kPrime && len(reranked) == q.K &&
			reranked[q.K-1].Score >= unordered[kPrime-1].Score
		if total.EarlyTerminated || len(unordered) < kPrime {
			results := append([]Result(nil), reranked...)
			detachDists(results)
			return results, total, nil
		}
		kPrime *= 2
	}
}
