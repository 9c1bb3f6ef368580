package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"uots/internal/obs"
	"uots/internal/trajdb"
)

// Diversified search (an extension beyond the paper): trip recommendation
// suffers when the top-k are k near-copies of the same route, which is
// common in commuter corpora. DiversifiedSearchCtx retrieves an enlarged
// candidate pool (max(16, 4·k), see Request.Pool) with the expansion
// search and then greedily selects k trajectories by maximal marginal
// relevance:
//
//	MMR(τ) = (1−μ)·SimST(q, τ) − μ·max_{σ already picked} overlap(τ, σ)
//
// where overlap is the Jaccard similarity of the two trajectories' vertex
// sets (route overlap). μ=0 degenerates to the plain top-k; μ→1 picks
// maximally disjoint routes.

// ErrBadDiversity is returned for μ outside [0, 1).
var ErrBadDiversity = errors.New("core: diversity weight must be in [0, 1)")

// DiversifyOptions tunes DiversifiedSearchCtx.
type DiversifyOptions struct {
	// Mu is the diversity weight μ ∈ [0, 1) (default 0.3).
	Mu float64
}

// normalize validates opts and fills defaults, returning the effective
// options.
func (o DiversifyOptions) normalize() (DiversifyOptions, error) {
	if o.Mu == 0 {
		o.Mu = 0.3
	}
	if o.Mu < 0 || o.Mu >= 1 || math.IsNaN(o.Mu) {
		return o, fmt.Errorf("%w: got %g", ErrBadDiversity, o.Mu)
	}
	return o, nil
}

// DiversifiedSearchCtx answers a top-k query re-ranked for route
// diversity. The pool retrieval polls ctx (see SearchCtx), and the MMR
// selection polls between greedy picks.
func (e *Engine) DiversifiedSearchCtx(ctx context.Context, q Query, opts DiversifyOptions) ([]Result, SearchStats, error) {
	return e.run(ctx, Request{Query: q, Diversify: &opts}, AlgoExpansion)
}

// SelectDiverseCtx greedily picks k results from a best-first candidate
// pool by maximal marginal relevance, polling ctx between picks. It is
// the select stage of a diversified search, exported so executors that
// assemble the pool differently (internal/shard merges per-partition
// pools) run the exact same selection and stay byte-identical with the
// monolithic engine. Route overlaps are computed against this engine's
// store, so the pool's trajectory IDs must be valid in it.
func (e *Engine) SelectDiverseCtx(ctx context.Context, pool []Result, k int, opts DiversifyOptions) (picked []Result, err error) {
	defer recoverStoreFault(&picked, &err)
	opts, err = opts.normalize()
	if err != nil {
		return nil, err
	}
	return e.selectDiverse(ctx, pool, k, opts)
}

// selectDiverse is the select stage proper; opts must be normalized and
// the caller holds the store-fault guard.
func (e *Engine) selectDiverse(ctx context.Context, pool []Result, k int, opts DiversifyOptions) ([]Result, error) {
	cancel := newCanceller(ctx)
	trace := tracerFrom(ctx)
	picked := make([]Result, 0, k)
	used := make([]bool, len(pool))
	for len(picked) < k && len(picked) < len(pool) {
		if err := cancel.check(); err != nil {
			return nil, err
		}
		bestIdx, bestMMR := -1, math.Inf(-1)
		for i, cand := range pool {
			if used[i] {
				continue
			}
			maxOverlap := 0.0
			for _, p := range picked {
				if ov := e.routeOverlap(cand.Traj, p.Traj); ov > maxOverlap {
					maxOverlap = ov
				}
			}
			mmr := (1-opts.Mu)*cand.Score - opts.Mu*maxOverlap
			if mmr > bestMMR || (mmr == bestMMR && bestIdx >= 0 && cand.Traj < pool[bestIdx].Traj) {
				bestIdx, bestMMR = i, mmr
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		if trace != nil {
			trace.Emit(obs.SpanEvent{Step: len(picked), Kind: TraceSelect, Source: -1,
				Traj: int64(pool[bestIdx].Traj), Value: bestMMR})
		}
		picked = append(picked, pool[bestIdx])
	}
	return picked, nil
}

// routeOverlap is the Jaccard similarity of two trajectories' unique
// vertex sets.
func (e *Engine) routeOverlap(a, b trajdb.TrajID) float64 {
	va := e.db.UniqueVertices(a)
	vb := e.db.UniqueVertices(b)
	i, j, inter := 0, 0, 0
	for i < len(va) && j < len(vb) {
		switch {
		case va[i] < vb[j]:
			i++
		case va[i] > vb[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(va) + len(vb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
