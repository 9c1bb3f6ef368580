package roadnet

import "math"

// Landmarks implements ALT (A*, Landmarks, Triangle inequality) distance
// lower bounds: a small set of well-spread landmark vertices with
// precomputed shortest-path distances to every vertex. For any u, v and
// landmark l, |d(l,u) − d(l,v)| ≤ d(u,v), so the max over landmarks is an
// inexpensive network-distance lower bound. The search engine's baselines
// use it to skip hopeless exact-distance computations.
//
// A Landmarks value is immutable after construction and safe for
// concurrent use.
type Landmarks struct {
	ids  []VertexID
	dist [][]float64 // dist[i][v] = d(ids[i], v)
}

// NewLandmarks selects count landmarks by farthest-point sampling (the
// first landmark is the vertex farthest from seed, each next one maximizes
// the distance to the already-chosen set) and precomputes their distance
// fields. count is clamped to the number of vertices.
func NewLandmarks(g *Graph, count int, seed VertexID) *Landmarks {
	if count > g.NumVertices() {
		count = g.NumVertices()
	}
	l := &Landmarks{}
	if count <= 0 {
		return l
	}
	s := NewSSSP(g)

	// minDist[v] = distance from v to the nearest chosen landmark.
	minDist := make([]float64, g.NumVertices())
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}

	// First landmark: the reachable vertex farthest from the seed.
	s.Run(seed)
	next := seed
	bestD := -1.0
	for v := 0; v < g.NumVertices(); v++ {
		if d := s.Dist(VertexID(v)); d != Unreachable && d > bestD {
			bestD = d
			next = VertexID(v)
		}
	}
	for len(l.ids) < count {
		s.Run(next)
		field := make([]float64, g.NumVertices())
		for v := range field {
			field[v] = s.Dist(VertexID(v))
		}
		l.ids = append(l.ids, next)
		l.dist = append(l.dist, field)

		bestD = -1.0
		cand := VertexID(-1)
		for v := 0; v < g.NumVertices(); v++ {
			if field[v] != Unreachable && field[v] < minDist[v] {
				minDist[v] = field[v]
			}
			if minDist[v] != math.Inf(1) && minDist[v] > bestD {
				bestD = minDist[v]
				cand = VertexID(v)
			}
		}
		if cand < 0 || bestD == 0 {
			break // graph smaller than requested landmark count
		}
		next = cand
	}
	return l
}

// Count returns the number of landmarks.
func (l *Landmarks) Count() int { return len(l.ids) }

// Dist returns the precomputed shortest-path distance from landmark i to
// vertex v (Unreachable when v lies in another component).
func (l *Landmarks) Dist(i int, v VertexID) float64 { return l.dist[i][v] }

// IDs returns the landmark vertex IDs. The slice must not be modified.
func (l *Landmarks) IDs() []VertexID { return l.ids }

// LowerBound returns a lower bound on the network distance d(u, v).
// With no landmarks it returns 0 (the trivial bound).
func (l *Landmarks) LowerBound(u, v VertexID) float64 {
	var lb float64
	for i := range l.dist {
		du, dv := l.dist[i][u], l.dist[i][v]
		if du == Unreachable || dv == Unreachable {
			// Different components from this landmark's perspective give
			// no finite information; skip.
			continue
		}
		if d := math.Abs(du - dv); d > lb {
			lb = d
		}
	}
	return lb
}

// LowerBoundToSet returns a lower bound on min over t in targets of d(u,t).
func (l *Landmarks) LowerBoundToSet(u VertexID, targets []VertexID) float64 {
	if len(targets) == 0 {
		return math.Inf(1)
	}
	lb := math.Inf(1)
	for _, t := range targets {
		if b := l.LowerBound(u, t); b < lb {
			lb = b
		}
	}
	return lb
}
