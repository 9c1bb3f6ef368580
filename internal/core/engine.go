package core

import (
	"fmt"
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
	if opts.Index != nil && opts.Index.NumTrajectories() != db.NumTrajectories() {
		// A stale or foreign index would bound the wrong trajectories —
		// silently wrong prunes — so a size mismatch is a hard error.
		return nil, fmt.Errorf("%w: index covers %d trajectories, store has %d",
			ErrIndexMismatch, opts.Index.NumTrajectories(), db.NumTrajectories())
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

// landmarkSpatialUB upper-bounds a trajectory's spatial similarity from
// Options.Index's landmark lower bounds on its distance to every query
// location: an O(K) interval lookup per location that touches no store
// state. Callers check Options.Index != nil first.
func (e *Engine) landmarkSpatialUB(locations []roadnet.VertexID, tid trajdb.TrajID) float64 {
	var sum float64
	for _, o := range locations {
		sum += e.kernel(e.opts.Index.LowerBound(o, tid))
	}
	return sum / float64(len(locations))
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
	sssp := roadnet.NewSSSP(e.g)
	dists := e.exactDists(sssp, q.Locations, id, nil)
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

// exactDists computes d(o, τ) for each query location o with an
// early-terminating Dijkstra whose target set is τ's vertex set. A
// non-nil settled is called once per settled vertex — the TextFirst
// baseline counts its work and polls cancellation there — and abandons
// the computation (nil distances) by returning false.
func (e *Engine) exactDists(sssp *roadnet.SSSP, locations []roadnet.VertexID, id trajdb.TrajID, settled func() bool) []float64 {
	dists := make([]float64, len(locations))
	for i, o := range locations {
		abandoned := false
		_, dists[i] = sssp.DistToSet(o, func(v roadnet.VertexID) bool {
			if settled != nil && !settled() {
				abandoned = true
				return true
			}
			return e.db.ContainsVertex(id, v)
		})
		if abandoned {
			return nil
		}
	}
	return dists
}
