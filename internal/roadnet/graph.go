// Package roadnet implements the spatial-network substrate: a connected,
// undirected, weighted graph modelling a road network, together with the
// shortest-path machinery the trajectory search engine is built on —
// single-source Dijkstra, early-terminating multi-target search,
// bidirectional point-to-point queries, ALT landmark lower bounds, and
// GoalSearch: one resumable Dijkstra per query location, whose settle
// order drives the UOTS expansion search (incremental network
// expansion, read through a cursor) and from which the engine's text
// probes and order-aware scorings read distances against a stream of
// target sets. All of them run on one vertex-state type (search.go).
//
// Vertices model road intersections (or ends of roads) and carry planar
// coordinates in kilometres; edge weights are road-segment lengths in
// kilometres. Trajectory sample points are assumed to be map matched onto
// vertices (package mapmatch provides the matching step for raw GPS input).
package roadnet

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"uots/internal/geo"
)

// VertexID identifies a vertex of a Graph. IDs are dense: a graph with n
// vertices uses IDs 0..n-1.
type VertexID int32

// Graph is an immutable undirected weighted graph in compressed
// sparse-row form. Build one with a Builder, a generator from gen.go, or
// ReadGraph.
type Graph struct {
	pts      []geo.Point
	adjStart []int32 // len = n+1; adjacency of v is adj{To,W}[adjStart[v]:adjStart[v+1]]
	adjTo    []int32
	adjW     []float64
	numEdges int // undirected edge count (len(adjTo)/2)
	bounds   geo.Rect
	scratch  sync.Pool // see Scratch
}

// Scratch returns the pool of per-query search workspaces for g: every
// engine searching g, whatever its trajectory store, takes its
// graph-sized working arrays from it and puts them back after the query,
// so a process answering many queries over one road network reuses them
// instead of allocating O(|V|) state per query. The pool lives and dies
// with g. Its one user is the search engine (package core), which puts
// only its own workspace type in it.
func (g *Graph) Scratch() *sync.Pool { return &g.scratch }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.pts) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// Point returns the planar coordinates of v.
func (g *Graph) Point(v VertexID) geo.Point { return g.pts[v] }

// Bounds returns the bounding rectangle of all vertex coordinates.
func (g *Graph) Bounds() geo.Rect { return g.bounds }

// Neighbors returns the adjacency of v as parallel slices of neighbour IDs
// and edge weights. The returned slices alias the graph's internal storage
// and must not be modified.
func (g *Graph) Neighbors(v VertexID) (to []int32, w []float64) {
	lo, hi := g.adjStart[v], g.adjStart[v+1]
	return g.adjTo[lo:hi], g.adjW[lo:hi]
}

// EdgeWeight returns the weight of edge {u, v} and whether the edge exists.
func (g *Graph) EdgeWeight(u, v VertexID) (float64, bool) {
	to, w := g.Neighbors(u)
	for i, t := range to {
		if VertexID(t) == v {
			return w[i], true
		}
	}
	return 0, false
}

// TotalEdgeLength returns the sum of all undirected edge weights.
func (g *Graph) TotalEdgeLength() float64 {
	var sum float64
	for _, w := range g.adjW {
		sum += w
	}
	return sum / 2
}

// Builder assembles a Graph incrementally. The zero value is ready to use.
type Builder struct {
	pts   []geo.Point
	adj   [][]halfEdge
	edges int
}

type halfEdge struct {
	to int32
	w  float64
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.pts) }

// AddVertex adds a vertex at p and returns its ID.
func (b *Builder) AddVertex(p geo.Point) VertexID {
	b.pts = append(b.pts, p)
	b.adj = append(b.adj, nil)
	return VertexID(len(b.pts) - 1)
}

// Errors returned by Builder.AddEdge and Builder.Build.
var (
	ErrBadVertex     = errors.New("roadnet: vertex id out of range")
	ErrSelfLoop      = errors.New("roadnet: self loops are not allowed")
	ErrBadWeight     = errors.New("roadnet: edge weight must be positive and finite")
	ErrDuplicateEdge = errors.New("roadnet: duplicate edge")
	ErrEmptyGraph    = errors.New("roadnet: graph has no vertices")
)

// AddEdge adds the undirected edge {u, v} with weight w (kilometres).
func (b *Builder) AddEdge(u, v VertexID, w float64) error {
	n := VertexID(len(b.pts))
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("%w: {%d, %d} with %d vertices", ErrBadVertex, u, v, n)
	}
	if u == v {
		return fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
	}
	if !(w > 0) || math.IsInf(w, 1) {
		return fmt.Errorf("%w: got %g", ErrBadWeight, w)
	}
	for _, he := range b.adj[u] {
		if he.to == int32(v) {
			return fmt.Errorf("%w: {%d, %d}", ErrDuplicateEdge, u, v)
		}
	}
	b.adj[u] = append(b.adj[u], halfEdge{int32(v), w})
	b.adj[v] = append(b.adj[v], halfEdge{int32(u), w})
	b.edges++
	return nil
}

// HasEdge reports whether the undirected edge {u, v} has been added.
func (b *Builder) HasEdge(u, v VertexID) bool {
	if u < 0 || int(u) >= len(b.adj) || v < 0 || int(v) >= len(b.adj) {
		return false
	}
	for _, he := range b.adj[u] {
		if he.to == int32(v) {
			return true
		}
	}
	return false
}

// Build freezes the builder into an immutable Graph. The builder can keep
// being used afterwards; the Graph does not alias its storage.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.pts)
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	g := &Graph{
		pts:      append([]geo.Point(nil), b.pts...),
		adjStart: make([]int32, n+1),
		adjTo:    make([]int32, 0, 2*b.edges),
		adjW:     make([]float64, 0, 2*b.edges),
		numEdges: b.edges,
	}
	bounds := geo.EmptyRect()
	for v := 0; v < n; v++ {
		g.adjStart[v] = int32(len(g.adjTo))
		for _, he := range b.adj[v] {
			g.adjTo = append(g.adjTo, he.to)
			g.adjW = append(g.adjW, he.w)
		}
		bounds = bounds.ExtendPoint(b.pts[v])
	}
	g.adjStart[n] = int32(len(g.adjTo))
	g.bounds = bounds
	return g, nil
}

// ConnectedComponents labels every vertex with a component number in
// [0, count) and returns the labels and the component count. Labels are
// assigned in order of first discovery (vertex 0 is always in component 0).
func (g *Graph) ConnectedComponents() (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var stack []int32
	for start := 0; start < n; start++ {
		if labels[start] != -1 {
			continue
		}
		labels[start] = int32(count)
		stack = append(stack[:0], int32(start))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			to, _ := g.Neighbors(VertexID(v))
			for _, t := range to {
				if labels[t] == -1 {
					labels[t] = int32(count)
					stack = append(stack, t)
				}
			}
		}
		count++
	}
	return labels, count
}
