package roadnet

import (
	"math"

	"uots/internal/pqueue"
)

// GoalSearch is a reusable A* workspace for "distance from a vertex set
// to each of a few targets" queries (FromSet). It explores a corridor
// toward the targets instead of a full Dijkstra circle — the access path
// behind the search engine's text-probe random accesses.
//
// A GoalSearch is not safe for concurrent use.
type GoalSearch struct {
	g       *Graph
	dist    []float64
	settled []bool
	touched []int32
	heap    *pqueue.Indexed
}

// NewGoalSearch returns a workspace for goal-directed queries on g.
func NewGoalSearch(g *Graph) *GoalSearch {
	n := g.NumVertices()
	gs := &GoalSearch{
		g:       g,
		dist:    make([]float64, n),
		settled: make([]bool, n),
		heap:    pqueue.NewIndexed(n),
	}
	for i := range gs.dist {
		gs.dist[i] = Unreachable
	}
	return gs
}

func (gs *GoalSearch) reset() {
	for _, v := range gs.touched {
		gs.dist[v] = Unreachable
		gs.settled[v] = false
	}
	gs.touched = gs.touched[:0]
	gs.heap.Reset()
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
	gs.reset()
	scale := gs.g.HeuristicScale()
	h := func(v int32) float64 {
		best := math.Inf(1)
		p := gs.g.pts[v]
		for _, t := range targets {
			if d := p.Dist(gs.g.pts[t]); d < best {
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
	for _, s := range sources {
		if gs.dist[s] != 0 { // skip duplicate source entries
			gs.dist[s] = 0
			gs.touched = append(gs.touched, int32(s))
			gs.heap.Push(int32(s), h(int32(s)))
		}
	}
	remaining := len(pending)
	//uots:allow looppoll -- early-terminating corridor search: bounded by the goal corridor, core polls between probes
	for remaining > 0 {
		v, _, ok := gs.heap.Pop()
		if !ok {
			return out
		}
		gs.settled[v] = true
		if onSettle != nil {
			onSettle()
		}
		d := gs.dist[v]
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
		to, w := gs.g.Neighbors(VertexID(v))
		for i, t := range to {
			if gs.settled[t] {
				continue
			}
			nd := d + w[i]
			if nd < gs.dist[t] {
				if gs.dist[t] == Unreachable {
					gs.touched = append(gs.touched, t)
				}
				gs.dist[t] = nd
				gs.heap.Push(t, nd+h(t))
			}
		}
	}
	return out
}
