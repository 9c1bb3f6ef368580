package roadnet

// SSSP is a reusable single-source shortest-path workspace for one graph.
// It amortizes the O(n) allocations across runs: each run resets only the
// vertices touched by the previous one, not the whole graph.
//
// An SSSP is not safe for concurrent use; allocate one per goroutine.
type SSSP struct {
	search search
}

// NewSSSP returns a workspace for shortest-path runs on g.
func NewSSSP(g *Graph) *SSSP {
	return &SSSP{search: newSearch(g)}
}

// Run computes shortest-path distances from src to every reachable vertex.
// Afterwards Dist and Settled report the results until the next Run.
func (s *SSSP) Run(src VertexID) {
	s.RunUntil(src, nil)
}

// RunUntil runs Dijkstra from src, invoking visit for every settled vertex
// in non-decreasing distance order. If visit returns false the search stops
// early; distances of vertices settled so far remain valid, and every other
// vertex reports a distance of at least the last settled distance.
// A nil visit runs to completion.
func (s *SSSP) RunUntil(src VertexID, visit func(v VertexID, d float64) bool) {
	s.search.reset()
	s.search.push(int32(src), 0)
	// The visit callback is the cancellation point: core's search loops
	// poll their canceller inside it.
	for {
		v, d, ok := s.search.Next()
		if !ok || visit != nil && !visit(VertexID(v), d) {
			return
		}
	}
}

// Dist returns the distance to v computed by the last run
// (Unreachable if v was not reached or the run stopped before settling v
// without relaxing it).
func (s *SSSP) Dist(v VertexID) float64 { return s.search.dist[v] }

// Settled reports whether v's distance was finalized by the last run.
func (s *SSSP) Settled(v VertexID) bool { return s.search.settled[v] }

// DistToSet runs Dijkstra from src until the first vertex of targets is
// settled and returns that vertex and its distance. Membership is tested
// with the targets predicate. If no target is reachable it returns
// (-1, Unreachable). This is the primitive behind "network distance from a
// query location to the nearest sample of a trajectory".
func (s *SSSP) DistToSet(src VertexID, targets func(VertexID) bool) (VertexID, float64) {
	found := VertexID(-1)
	dist := Unreachable
	s.RunUntil(src, func(v VertexID, d float64) bool {
		if targets(v) {
			found, dist = v, d
			return false
		}
		return true
	})
	return found, dist
}

// ShortestPath returns a shortest path between u and v and its length,
// using the bidirectional Dijkstra in bidir.go. ok is false when v is not
// reachable from u.
func ShortestPath(g *Graph, u, v VertexID) (path []VertexID, dist float64, ok bool) {
	b := NewBidirectional(g)
	return b.Path(u, v)
}
