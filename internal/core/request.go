package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"uots/internal/trajdb"
)

// Request is the paper's one query q = (O, ψ, λ, k) plus at most one
// modifier. Every layer above the engine — the HTTP handler, the shard
// scatter-gather, the RPC wire — speaks Request and derives what it needs
// from it (the variant label, the bound-exchange predicate) instead of
// spelling each modifier out as its own entry point.
//
// The modifiers are pointers so that "absent" is distinct from a valid
// zero value (the window 00:00–00:00, default diversity options). Gob
// omits a pointer to a zero scalar, so a Theta of 0 does not survive the
// wire — it is invalid anyway, and Validate rejects it before anything
// is sent.
type Request struct {
	Query Query
	// Theta turns the query into the threshold variant: every trajectory
	// scoring at least θ ∈ (0, 1], best first (Query.K is ignored).
	Theta *float64
	// Window restricts the search to trajectories departing inside it.
	Window *TimeWindow
	// OrderAware matches the query locations in visiting order.
	OrderAware bool
	// Diversify re-ranks an enlarged relevance pool for route diversity.
	Diversify *DiversifyOptions
}

// ErrModifierConflict rejects a request that sets more than one modifier.
var ErrModifierConflict = errors.New("core: a request takes at most one of theta, window, orderAware, diversify")

// Backend is the set of named entry points a Request dispatches onto.
// Engine implements it (each one a thin wrapper onto Engine.run), as do
// the sharded executors of internal/shard.
type Backend interface {
	SearchCtx(ctx context.Context, q Query) ([]Result, SearchStats, error)
	SearchThresholdCtx(ctx context.Context, q Query, theta float64) ([]Result, SearchStats, error)
	SearchWindowedCtx(ctx context.Context, q Query, w TimeWindow) ([]Result, SearchStats, error)
	OrderAwareSearchCtx(ctx context.Context, q Query) ([]Result, SearchStats, error)
	DiversifiedSearchCtx(ctx context.Context, q Query, opts DiversifyOptions) ([]Result, SearchStats, error)
}

var _ Backend = (*Engine)(nil)

// modifiers names the modifiers r sets.
func (r Request) modifiers() []string {
	set := make([]string, 0, 4)
	if r.Theta != nil {
		set = append(set, "theta")
	}
	if r.Window != nil {
		set = append(set, "window")
	}
	if r.OrderAware {
		set = append(set, "orderAware")
	}
	if r.Diversify != nil {
		set = append(set, "diversify")
	}
	return set
}

// Variant is the label metrics and trace notes file r under.
func (r Request) Variant() string {
	if r.Theta != nil {
		return "threshold"
	}
	if r.Window != nil {
		return "windowed"
	}
	if r.OrderAware {
		return "orderaware"
	}
	if r.Diversify != nil {
		return "diversified"
	}
	return "search"
}

// Validate checks everything about r that does not need the graph: at
// most one modifier, θ ∈ (0, 1], window bounds inside one day, μ ∈ [0, 1).
// It is the only place those ranges are checked. The query itself is
// validated by the engine that runs it.
func (r Request) Validate() error {
	if set := r.modifiers(); len(set) > 1 {
		return fmt.Errorf("%w: got %s", ErrModifierConflict, strings.Join(set, ", "))
	}
	if r.Theta != nil {
		if theta := *r.Theta; !(theta > 0) || theta > 1 || math.IsNaN(theta) {
			return ErrBadThreshold
		}
	}
	if r.Window != nil {
		if err := r.Window.Validate(); err != nil {
			return err
		}
	}
	if r.Diversify != nil {
		if _, err := r.Diversify.normalize(); err != nil {
			return err
		}
	}
	return nil
}

// SharesBound reports whether the partitions of a scattered r may
// exchange a SharedBound: they must all run a top-k search with the same
// K. A threshold search has no k-th score (its bar θ is global already),
// and a diversified search widens K internally, so a small-K threshold
// could over-prune a large-K participant. (A scatter runs a diversified
// request as a plain search for the enlarged pool, and that search does
// share a bound.) An order-aware search exchanges its k-th ordered
// score, which under-estimates the global k-th as a plain one does.
func (r Request) SharesBound() bool {
	return r.Theta == nil && r.Diversify == nil
}

// Pool splits a diversified r (one Validate accepted) into its two
// stages: the plain request whose answer is the relevance pool, and the k
// picks the MMR selection draws from that pool under the normalized opts.
// The monolithic engine and the sharded scatter both plan with it, so
// both retrieve the same pool. A negative K stays on the pool query: the
// engine that runs it rejects it with ErrBadK.
func (r Request) Pool() (pool Request, k int, opts DiversifyOptions) {
	opts, _ = r.Diversify.normalize()
	pool, k = Request{Query: r.Query}, r.Query.K
	if k == 0 {
		k = 1 // the engine's default
	}
	if k > 0 {
		pool.Query.K = max(16, 4*k)
	}
	return pool, k, opts
}

// Run validates r and calls the entry point of b it selects.
func (r Request) Run(ctx context.Context, b Backend) ([]Result, SearchStats, error) {
	if err := r.Validate(); err != nil {
		return nil, SearchStats{}, err
	}
	switch r.Variant() {
	case "threshold":
		return b.SearchThresholdCtx(ctx, r.Query, *r.Theta)
	case "windowed":
		return b.SearchWindowedCtx(ctx, r.Query, *r.Window)
	case "orderaware":
		return b.OrderAwareSearchCtx(ctx, r.Query)
	case "diversified":
		return b.DiversifiedSearchCtx(ctx, r.Query, *r.Diversify)
	default:
		return b.SearchCtx(ctx, r.Query)
	}
}

// run is the one search pipeline every entry point — the five variants,
// the two baselines, each query of a batch — is a thin wrapper onto. It
// validates and normalizes once, holds the store-fault guard and the
// stopwatch, and then runs the plan the request spells out:
//
//	candidates → [select]
//
// where candidates is the generator algo names (with the θ cut, the
// window filter or the order-aware sink pushed into it) and select is
// the MMR pick over the enlarged pool.
func (e *Engine) run(ctx context.Context, req Request, algo Algorithm) (results []Result, stats SearchStats, err error) {
	defer recoverStoreFault(&results, &err)
	elapsed := stopwatch()
	if err := req.Validate(); err != nil {
		return nil, SearchStats{}, err
	}
	q, err := req.Query.normalize(e.g)
	if err != nil {
		return nil, SearchStats{}, err
	}
	if n := e.db.NumTrajectories(); q.K > n {
		// An answer cannot outgrow the store, and every stage below sizes
		// buffers by K: an unbounded client k must not reach an allocation.
		q.K = n
		// A full top-n holds this store's n-th score, not the K-th score
		// the peers of a SharedBound exchange: leave the exchange.
		if sharedBoundFrom(ctx) != nil {
			ctx = ContextWithSharedBound(ctx, nil)
		}
	}
	req.Query = q
	// A store fault panics through here: the scratch is then dropped,
	// never put back half-written. The exhaustive scan reads no scratch.
	var scr *scratch
	if algo != AlgoExhaustive {
		scr = acquireScratch(e.g, e.db.NumTrajectories(), q.Locations)
	}
	if req.Diversify != nil {
		pool, k, opts := req.Pool()
		results, stats, err = e.candidates(ctx, pool, algo, scr)
		if err == nil {
			results, err = e.selectDiverse(ctx, results, k, opts)
		}
	} else {
		results, stats, err = e.candidates(ctx, req, algo, scr)
	}
	if scr != nil {
		scr.release()
	}
	stats.Elapsed = elapsed()
	if err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}

// candidates is the generator stage of req, whose query is normalized:
// its exact results, best first — the top K, every trajectory scoring at
// least θ when req sets Theta, only the trips departing inside req's
// Window, ranked by the ordered similarity when req is OrderAware. The
// baselines generate the plain top-k, except that the exhaustive scan
// also honours θ. The expansion, the text ranking and TextFirst run on
// scr, the request's scratch.
func (e *Engine) candidates(ctx context.Context, req Request, algo Algorithm, scr *scratch) ([]Result, SearchStats, error) {
	q := req.Query
	var theta float64
	if req.Theta != nil {
		theta = *req.Theta
	}
	var keep func(trajdb.TrajID) bool
	if w := req.Window; w != nil {
		keep = func(id trajdb.TrajID) bool { return w.Contains(e.db.Traj(id).Start()) }
	}
	switch {
	case algo == AlgoExhaustive:
		return e.exhaustive(ctx, q, theta)
	case algo == AlgoTextFirst:
		return e.textFirst(ctx, q, scr)
	case q.Lambda == 0:
		return e.textOnly(ctx, q, theta, keep, req.OrderAware, scr)
	}
	st := newExpansionState(ctx, e, q, theta, keep, req.OrderAware, scr)
	err := st.run()
	var results []Result
	if err == nil {
		if theta > 0 {
			sortResults(st.qualified)
			results = st.qualified
		} else {
			results = st.topk.Results()
		}
		detachDists(results)
	}
	return results, st.stats, err
}

// detachDists copies the results' distances out of the scratch arena
// the search cut them from, into one allocation.
func detachDists(rs []Result) {
	n := 0
	for _, r := range rs {
		n += len(r.Dists)
	}
	buf := make([]float64, n)
	for i := range rs {
		d := buf[:len(rs[i].Dists):len(rs[i].Dists)]
		buf = buf[len(d):]
		copy(d, rs[i].Dists)
		rs[i].Dists = d
	}
}
