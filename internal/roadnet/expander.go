package roadnet

import "uots/internal/pqueue"

// Expander performs incremental network expansion (Dijkstra) from a single
// source vertex, the core primitive of the UOTS expansion search: each call
// to Next settles exactly one more vertex, in non-decreasing distance
// order, so the first trajectory sample reached from a query location is
// provably its nearest one and the current radius lower-bounds the distance
// to everything not yet reached.
//
// An Expander is not safe for concurrent use. Reset reuses all storage, so
// the search engine can keep one expander per query source across queries.
type Expander struct {
	g       *Graph
	dist    []float64
	settled []bool
	touched []int32
	heap    *pqueue.Indexed
	radius  float64
	done    bool
}

// NewExpander returns an expander on g positioned at src with radius 0.
func NewExpander(g *Graph, src VertexID) *Expander {
	n := g.NumVertices()
	e := &Expander{
		g:       g,
		dist:    make([]float64, n),
		settled: make([]bool, n),
		heap:    pqueue.NewIndexed(n),
	}
	for i := range e.dist {
		e.dist[i] = Unreachable
	}
	e.start(src)
	return e
}

// Reset repositions the expander at src with radius 0, reusing storage.
func (e *Expander) Reset(src VertexID) {
	for _, v := range e.touched {
		e.dist[v] = Unreachable
		e.settled[v] = false
	}
	e.touched = e.touched[:0]
	e.heap.Reset()
	e.radius = 0
	e.done = false
	e.start(src)
}

func (e *Expander) start(src VertexID) {
	e.dist[src] = 0
	e.touched = append(e.touched, int32(src))
	e.heap.Push(int32(src), 0)
}

// Next settles the next-nearest unsettled vertex and returns it with its
// exact network distance from the source. ok is false once the whole
// reachable component has been settled; from then on Radius reports
// Unreachable.
func (e *Expander) Next() (v VertexID, d float64, ok bool) {
	iv, d, ok := e.heap.Pop()
	if !ok {
		e.done = true
		e.radius = Unreachable
		return -1, Unreachable, false
	}
	e.settled[iv] = true
	e.radius = d
	to, w := e.g.Neighbors(VertexID(iv))
	for i, t := range to {
		if e.settled[t] {
			continue
		}
		nd := d + w[i]
		if nd < e.dist[t] {
			if e.dist[t] == Unreachable {
				e.touched = append(e.touched, t)
			}
			e.dist[t] = nd
			e.heap.Push(t, nd)
		}
	}
	return VertexID(iv), d, true
}

// Radius returns the distance of the most recently settled vertex — a
// lower bound on the distance from the source to every vertex not yet
// settled. After exhaustion it returns Unreachable.
func (e *Expander) Radius() float64 { return e.radius }

// Done reports whether the reachable component has been fully settled.
func (e *Expander) Done() bool { return e.done }
