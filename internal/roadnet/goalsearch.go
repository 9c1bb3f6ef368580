package roadnet

import "math"

// GoalSearch is a reusable A* workspace for "distance from a vertex set
// to each of a few targets" queries (FromSet). It explores a corridor
// toward the targets instead of a full Dijkstra circle — the access path
// behind the search engine's text-probe random accesses.
//
// A GoalSearch is not safe for concurrent use.
type GoalSearch struct {
	search search
}

// NewGoalSearch returns a workspace for goal-directed queries on g.
func NewGoalSearch(g *Graph) *GoalSearch {
	return &GoalSearch{search: newSearch(g)}
}

// FromSet runs one multi-source A* from the given source set (all at
// distance 0) toward the target vertices, returning the exact network
// distance from the set to each target (Unreachable for targets in other
// components). On an undirected graph this equals the distance from each
// target to the nearest source — resolving "how far is this trajectory
// from every query location" with a single corridor-shaped search.
// The heuristic is the scaled planar distance to the nearest target,
// which is consistent, so settled distances are exact.
func (gs *GoalSearch) FromSet(sources []VertexID, targets []VertexID, onSettle func()) []float64 {
	s := &gs.search
	s.reset()
	scale := s.g.HeuristicScale()
	h := func(v int32) float64 {
		best := math.Inf(1)
		p := s.g.pts[v]
		for _, t := range targets {
			if d := p.Dist(s.g.pts[t]); d < best {
				best = d
			}
		}
		return best * scale
	}
	out := make([]float64, len(targets))
	pending := make(map[VertexID][]int, len(targets))
	for i, t := range targets {
		out[i] = Unreachable
		pending[t] = append(pending[t], i)
	}
	for _, src := range sources {
		s.push(int32(src), 0, h(int32(src))) // a duplicate source does not improve on 0
	}
	remaining := len(pending)
	// Bounded by the goal corridor; core polls for cancellation between
	// probes.
	for remaining > 0 {
		v, _, ok := s.Pop()
		if !ok {
			return out
		}
		if onSettle != nil {
			onSettle()
		}
		d := s.dist[v]
		if idxs, hit := pending[VertexID(v)]; hit {
			for _, i := range idxs {
				out[i] = d
			}
			delete(pending, VertexID(v))
			remaining--
			if remaining == 0 {
				return out
			}
		}
		to, w := s.g.Neighbors(VertexID(v))
		for i, t := range to {
			// Test the improvement here so h runs only for vertices push takes.
			if nd := d + w[i]; !s.settled[t] && nd < s.dist[t] {
				s.push(t, nd, nd+h(t))
			}
		}
	}
	return out
}
