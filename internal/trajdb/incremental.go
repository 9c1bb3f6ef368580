package trajdb

import (
	"uots/internal/geo"
	"uots/internal/roadnet"
	"uots/internal/textual"
)

// extendWith returns a new immutable Store covering s's trajectories
// plus trajs appended densely after them, leaving s untouched: queries
// pinned to s keep a consistent view while new snapshots serve the
// grown corpus. This is the add-only fast path of DynamicStore snapshot
// maintenance — O(new work + sharing bookkeeping) instead of the
// O(live) full rebuild: the outer index slices are copied (pointer
// copies), but per-vertex posting lists and text-index postings are
// shared with s except where a new trajectory actually touches them,
// and those are copied before being appended to so neither store can
// observe the other's writes.
//
// trajs must already satisfy the Builder.Add invariants (ValidateSamples
// plus interned keywords); DynamicStore guarantees that because every
// trajectory was validated when it entered the live set.
func (s *Store) extendWith(trajs []*Trajectory) *Store {
	n := len(s.trajs)
	next := &Store{
		Index: Index{
			g:        s.g,
			vocab:    s.vocab,
			vertexIx: make([][]TrajID, len(s.vertexIx)),
			bboxes:   make([]geo.Rect, n, n+len(trajs)),
		},
		trajs:        make([]Trajectory, n, n+len(trajs)),
		vertsOf:      make([][]roadnet.VertexID, n, n+len(trajs)),
		totalSamples: s.totalSamples,
	}
	copy(next.trajs, s.trajs)
	copy(next.vertexIx, s.vertexIx)
	copy(next.vertsOf, s.vertsOf)
	copy(next.bboxes, s.bboxes)

	copied := make(map[roadnet.VertexID]bool) // vertices whose posting list is already unshared
	termSets := make([]textual.TermSet, 0, len(trajs))
	for _, t := range trajs {
		id := TrajID(len(next.trajs))
		next.trajs = append(next.trajs, Trajectory{
			ID:       id,
			Samples:  append([]Sample(nil), t.Samples...),
			Keywords: t.Keywords,
		})
		uniq, box := trajIndexEntry(s.g, t.Samples)
		next.vertsOf = append(next.vertsOf, uniq)
		next.bboxes = append(next.bboxes, box)
		for _, v := range uniq {
			if !copied[v] {
				next.vertexIx[v] = append(make([]TrajID, 0, len(next.vertexIx[v])+1), next.vertexIx[v]...)
				copied[v] = true
			}
			next.vertexIx[v] = append(next.vertexIx[v], id)
		}
		next.totalSamples += len(t.Samples)
		termSets = append(termSets, t.Keywords)
	}
	next.textIx = s.textIx.Extend(termSets)
	return next
}
