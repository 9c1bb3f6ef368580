package roadnet

import "math"

// Unreachable is the distance reported for vertices that cannot be reached
// from the source.
var Unreachable = math.Inf(1)

// posAbsent marks a vertex that is not queued.
const posAbsent = int32(-1)

// search is the per-vertex state every graph search in this package runs
// on: tentative distances, the settled set, and an indexed binary min-heap
// of queued vertices, keyed by distance, with decrease-key. A heap entry
// carries its vertex's distance, so sifting compares the heap array
// alone instead of loading dist per comparison. Every vertex
// whose distance leaves Unreachable is recorded once in touched, so reset
// costs time proportional to the vertices the previous run reached, not
// to the graph size. The faces differ in their roots, in when they stop,
// and in what else they record: SSSP runs one root to a stop,
// GoalSearch steps one run per root against a marked target set and
// logs each run's settle order for its scan cursor, Bidirectional runs
// two and records parents.
type search struct {
	g       *Graph
	dist    []float64
	settled []bool
	pos     []int32     // pos[v] = index of v in keys, or posAbsent
	keys    []heapEntry // heap array of queued vertices, ordered by d
	touched []int32     // vertices whose state reset must clear
}

// heapEntry is one queued vertex and its key, the vertex's tentative
// distance (always equal to dist[v]).
type heapEntry struct {
	d float64
	v int32
}

func newSearch(g *Graph) search {
	n := g.NumVertices()
	s := search{
		g:       g,
		dist:    make([]float64, n),
		settled: make([]bool, n),
		pos:     make([]int32, n),
	}
	for i := range s.dist {
		s.dist[i] = Unreachable
		s.pos[i] = posAbsent
	}
	return s
}

// reset clears the state of every vertex the previous run touched.
func (s *search) reset() {
	for _, v := range s.touched {
		s.dist[v] = Unreachable
		s.settled[v] = false
		s.pos[v] = posAbsent
	}
	s.touched = s.touched[:0]
	s.keys = s.keys[:0]
}

// push relaxes v to distance d. When d improves on v's distance, v is
// queued, or moved up the heap if it is already queued, and push reports
// true; otherwise nothing changes.
func (s *search) push(v int32, d float64) (improved bool) {
	if !(d < s.dist[v]) {
		return false
	}
	if s.dist[v] == Unreachable {
		s.touched = append(s.touched, v)
	}
	s.dist[v] = d
	if p := s.pos[v]; p != posAbsent {
		s.keys[p].d = d
		s.up(int(p))
		return true
	}
	s.pos[v] = int32(len(s.keys))
	s.keys = append(s.keys, heapEntry{d, v})
	s.up(len(s.keys) - 1)
	return true
}

// Pop removes the nearest queued vertex, marks it settled and returns it
// with its distance. ok is false when the queue is empty.
func (s *search) Pop() (v int32, d float64, ok bool) {
	if len(s.keys) == 0 {
		return 0, 0, false
	}
	v, d = s.keys[0].v, s.keys[0].d
	last := len(s.keys) - 1
	s.keys[0] = s.keys[last]
	s.pos[s.keys[0].v] = 0
	s.keys = s.keys[:last]
	s.pos[v] = posAbsent
	if last > 0 {
		s.down(0)
	}
	s.settled[v] = true
	return v, d, true
}

// minKey returns the smallest queued distance, or Unreachable when the
// queue is empty.
func (s *search) minKey() float64 {
	if len(s.keys) == 0 {
		return Unreachable
	}
	return s.keys[0].d
}

// Next is one Dijkstra step: it settles the nearest queued vertex and
// relaxes each unsettled neighbour. ok is false once the queue is empty.
func (s *search) Next() (v int32, d float64, ok bool) {
	v, d, ok = s.Pop()
	if !ok {
		return v, d, false
	}
	to, w := s.g.Neighbors(VertexID(v))
	for i, t := range to {
		if !s.settled[t] {
			s.push(t, d+w[i])
		}
	}
	return v, d, true
}

func (s *search) up(i int) {
	e := s.keys[i]
	for i > 0 {
		parent := (i - 1) / 2
		pe := s.keys[parent]
		if pe.d <= e.d {
			break
		}
		s.keys[i] = pe
		s.pos[pe.v] = int32(i)
		i = parent
	}
	s.keys[i] = e
	s.pos[e.v] = int32(i)
}

func (s *search) down(i int) {
	n := len(s.keys)
	e := s.keys[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		ce := s.keys[child]
		if r := child + 1; r < n {
			if re := s.keys[r]; re.d < ce.d {
				child, ce = r, re
			}
		}
		if e.d <= ce.d {
			break
		}
		s.keys[i] = ce
		s.pos[ce.v] = int32(i)
		i = child
	}
	s.keys[i] = e
	s.pos[e.v] = int32(i)
}
