package core

import (
	"math"

	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// Engine answers UOTS queries over one trajectory store. It is immutable
// after construction and safe for concurrent use: every query takes its
// own search state from the pool of the engine's road network
// (roadnet.Graph.Scratch, shared with every other engine over the same
// graph) and puts it back cleared, so goroutines may call SearchCtx
// concurrently (the batch engine in batch.go relies on this).
type Engine struct {
	g    *roadnet.Graph
	db   TrajStore
	opts Options
}

// NewEngine creates an engine over db with the given options. A zero
// Options value selects the paper configuration. db may be any TrajStore
// implementation — the in-memory trajdb.Store or the disk-resident
// diskstore.Store.
func NewEngine(db TrajStore, opts Options) (*Engine, error) {
	if db == nil {
		return nil, ErrNilStore
	}
	if db.NumTrajectories() == 0 {
		return nil, ErrEmptyStore
	}
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	return &Engine{g: db.Graph(), db: db, opts: opts}, nil
}

// Store returns the engine's trajectory store.
func (e *Engine) Store() TrajStore { return e.db }

// Options returns the engine's effective (normalized) options.
func (e *Engine) Options() Options { return e.opts }

// kernel maps a network distance to spatial similarity contribution
// e^{−d/γ} ∈ (0, 1]. Unreachable maps to 0.
func (e *Engine) kernel(d float64) float64 {
	if math.IsInf(d, 1) {
		return 0
	}
	return math.Exp(-d / e.opts.DistScale)
}

// textScore computes SimT, the Jaccard similarity between the query
// keyword set and trajectory id's keywords.
func (e *Engine) textScore(query textual.TermSet, id trajdb.TrajID) float64 {
	return textual.Jaccard(query, e.db.Keywords(id))
}

// spatialFromDists folds per-location distances into the spatial
// similarity (1/|O|)·Σ e^{−dᵢ/γ}.
func (e *Engine) spatialFromDists(dists []float64) float64 {
	var sum float64
	for _, d := range dists {
		sum += e.kernel(d)
	}
	return sum / float64(len(dists))
}

// combine applies the linear combination λ·spatial + (1−λ)·textual.
func combine(lambda, spatial, textual float64) float64 {
	return lambda*spatial + (1-lambda)*textual
}

// Evaluate computes the exact similarity of one trajectory against a
// query, including per-location network distances. It is the reference
// scorer used by tests and by callers that want to explain a
// recommendation; it runs one early-terminating Dijkstra per query
// location and costs far more than an engine search amortizes per
// trajectory.
func (e *Engine) Evaluate(q Query, id trajdb.TrajID) (res Result, err error) {
	defer recoverStoreFault(nil, &err)
	q, err = q.normalize(e.g)
	if err != nil {
		return Result{}, err
	}
	if id < 0 || int(id) >= e.db.NumTrajectories() {
		return Result{}, ErrTrajRange
	}
	// One early-terminating Dijkstra per location, targeted at the
	// trajectory's vertex set: independent of the searches' goal search.
	sssp := roadnet.NewSSSP(e.g)
	dists := make([]float64, len(q.Locations))
	for i, o := range q.Locations {
		_, dists[i] = sssp.DistToSet(o, func(v roadnet.VertexID) bool { return e.db.ContainsVertex(id, v) })
	}
	spatial := e.spatialFromDists(dists)
	text := e.textScore(q.Keywords, id)
	return Result{
		Traj:    id,
		Score:   combine(q.Lambda, spatial, text),
		Spatial: spatial,
		Textual: text,
		Dists:   dists,
	}, nil
}

// resolveDists writes to dists the distance from each query location to
// trajectory id's vertex set, read from gs, the request's goal search: a
// location whose run has not met the set yet is stepped until it does,
// or until it exhausts its component (Unreachable). The settles count in
// stats, and cancel is polled every cancelPollEvery of them. The λ = 0
// text ranking resolves its returned trips with it, and the TextFirst
// baseline every trip it visits.
func (e *Engine) resolveDists(gs *roadnet.GoalSearch, id trajdb.TrajID, dists []float64, cancel canceller, stats *SearchStats) error {
	gs.Target(e.db.UniqueVertices(id))
	for i := range dists {
		d, known := gs.Known(i)
		for !known {
			if stats.SettledVertices%cancelPollEvery == 0 {
				if err := cancel.check(); err != nil {
					return err
				}
			}
			var hit, ok bool
			d, hit, ok = gs.Step(i)
			if known = hit || !ok; ok {
				stats.SettledVertices++
			}
		}
		dists[i] = d
	}
	return nil
}
