// Package index holds the precomputed pruning structure layered on top
// of the trajectory store: ALT-landmark network-distance lower bounds
// aggregated per trajectory (TrajBounds).
//
// TrajBounds gives the engine its per-candidate spatial upper bound as
// an O(K) lookup over precomputed per-landmark intervals, where the
// per-vertex ALT bound (roadnet.Landmarks.LowerBoundToSet) would scan the
// trajectory's vertex set — O(K·|τ|) and a record fault on the disk
// store — for a slightly tighter value. The engine uses it to discard
// whole trajectories at admission time, before any Dijkstra settle or
// store access.
package index

import (
	"math"

	"uots/internal/roadnet"
	"uots/internal/trajdb"
)

// Source is the minimal store surface TrajBounds construction needs.
// Both trajdb.Store and diskstore.Store satisfy it.
type Source interface {
	NumTrajectories() int
	UniqueVertices(id trajdb.TrajID) []roadnet.VertexID
}

// TrajBounds provides O(K) lower bounds on the network distance from an
// arbitrary vertex to the nearest vertex of a trajectory, derived from K
// ALT landmarks: for each landmark l and trajectory τ it stores
// [minB, maxB] = the range of finite d(l, x) over x ∈ τ. For a query
// vertex u with a = d(l, u) finite, every x ∈ τ with finite d(l, x)
// satisfies d(u, x) ≥ |a − d(l, x)| ≥ max(0, minB − a, a − maxB), and
// vertices with infinite d(l, x) lie in another component than u
// entirely (the graph is undirected), so the interval bound holds for
// min over all of τ. The max over landmarks is the published bound.
//
// Compared with roadnet.Landmarks.LowerBoundToSet (min over τ of the
// per-pair ALT bound) the interval form is never tighter, but it needs
// no access to the trajectory's vertex set at query time — the property
// the admission-time prune in the expansion loop depends on.
//
// A TrajBounds is immutable after construction and safe for concurrent
// use. Extend derives a grown value without touching the receiver,
// matching the MVCC snapshot-extension discipline of trajdb.
type TrajBounds struct {
	lm *roadnet.Landmarks
	// rows[t] holds 2K floats: [min_0..min_{K-1}, max_0..max_{K-1}].
	// A landmark with no finite distance to any vertex of t keeps the
	// +Inf/−Inf sentinels and is skipped at query time. Rows are never
	// mutated after construction; Extend copies only the outer headers.
	rows [][]float64
}

// NewTrajBounds precomputes per-trajectory landmark intervals for every
// trajectory in src. Building over a disk-resident store faults every
// record once (one sequential pass); the result is pure memory.
func NewTrajBounds(src Source, lm *roadnet.Landmarks) *TrajBounds {
	n := src.NumTrajectories()
	b := &TrajBounds{lm: lm, rows: make([][]float64, n)}
	for t := 0; t < n; t++ {
		b.rows[t] = buildRow(src, lm, trajdb.TrajID(t))
	}
	return b
}

// buildRow computes one trajectory's [min, max] interval per landmark.
func buildRow(src Source, lm *roadnet.Landmarks, id trajdb.TrajID) []float64 {
	k := lm.Count()
	row := make([]float64, 2*k)
	for i := 0; i < k; i++ {
		row[i] = math.Inf(1)
		row[k+i] = math.Inf(-1)
	}
	for _, v := range src.UniqueVertices(id) {
		for i := 0; i < k; i++ {
			d := lm.Dist(i, v)
			if d == roadnet.Unreachable {
				continue
			}
			if d < row[i] {
				row[i] = d
			}
			if d > row[k+i] {
				row[k+i] = d
			}
		}
	}
	return row
}

// Landmarks returns the landmark set the bounds were derived from.
func (b *TrajBounds) Landmarks() *roadnet.Landmarks { return b.lm }

// NumTrajectories returns the number of trajectories covered.
func (b *TrajBounds) NumTrajectories() int { return len(b.rows) }

// LowerBound returns a lower bound on min over x ∈ trajectory id of the
// network distance d(u, x). With no landmarks (or no finite landmark
// information) it returns 0, the trivial bound.
func (b *TrajBounds) LowerBound(u roadnet.VertexID, id trajdb.TrajID) float64 {
	row := b.rows[id]
	k := b.lm.Count()
	var lb float64
	for i := 0; i < k; i++ {
		a := b.lm.Dist(i, u)
		if a == roadnet.Unreachable {
			// u is in another component than this landmark: no finite
			// information (mirrors roadnet.Landmarks.LowerBound).
			continue
		}
		minB, maxB := row[i], row[k+i]
		if minB > maxB {
			continue // landmark reaches no vertex of the trajectory
		}
		if d := minB - a; d > lb {
			lb = d
		}
		if d := a - maxB; d > lb {
			lb = d
		}
	}
	return lb
}

// Extend returns a TrajBounds covering src's trajectories, reusing the
// receiver's rows for the shared dense-ID prefix and computing rows only
// for the appended tail — the incremental maintenance step of an
// add-only MVCC snapshot extension. The receiver is not touched: the
// outer row slice is copied (header copies), never appended to in
// place, so readers pinned to the old value keep a consistent view.
// src must extend the corpus the receiver was built over (dense IDs,
// add-only); src.NumTrajectories() < b.NumTrajectories() panics.
func (b *TrajBounds) Extend(src Source) *TrajBounds {
	n := src.NumTrajectories()
	if n < len(b.rows) {
		panic("index: Extend over a shrunken store (removals need a rebuild)")
	}
	next := &TrajBounds{lm: b.lm, rows: make([][]float64, n)}
	copy(next.rows, b.rows)
	for t := len(b.rows); t < n; t++ {
		next.rows[t] = buildRow(src, b.lm, trajdb.TrajID(t))
	}
	return next
}
