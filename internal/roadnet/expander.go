package roadnet

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
	search search
	radius float64
}

// NewExpander returns an expander on g positioned at src with radius 0.
func NewExpander(g *Graph, src VertexID) *Expander {
	e := &Expander{search: newSearch(g)}
	e.search.push(int32(src), 0)
	return e
}

// Reset repositions the expander at src with radius 0, reusing storage.
func (e *Expander) Reset(src VertexID) {
	e.search.reset()
	e.search.push(int32(src), 0)
	e.radius = 0
}

// Next settles the next-nearest unsettled vertex and returns it with its
// exact network distance from the source. ok is false once the whole
// reachable component has been settled; from then on Radius reports
// Unreachable.
func (e *Expander) Next() (v VertexID, d float64, ok bool) {
	iv, d, ok := e.search.Next()
	if !ok {
		e.radius = Unreachable
		return -1, Unreachable, false
	}
	e.radius = d
	return VertexID(iv), d, true
}

// Radius returns the distance of the most recently settled vertex — a
// lower bound on the distance from the source to every vertex not yet
// settled. After exhaustion it returns Unreachable.
func (e *Expander) Radius() float64 { return e.radius }
