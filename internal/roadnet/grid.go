package roadnet

import (
	"math"

	"uots/internal/geo"
)

// VertexIndex is a uniform-grid spatial index over the vertices of a graph,
// supporting nearest-vertex snapping and range queries. It is the access
// path that turns raw coordinates (user clicks, GPS fixes) into network
// vertices for querying and map matching.
//
// A VertexIndex is immutable after construction and safe for concurrent use.
type VertexIndex struct {
	g        *Graph
	cellSize float64
	cols     int
	rows     int
	origin   geo.Point
	cells    [][]int32 // vertex IDs per cell, row-major
}

// NewVertexIndex builds a grid index over g's vertices. cellSize is the
// grid pitch in kilometres; values around the network's mean edge length
// work well. Non-positive cellSize picks a default from the graph bounds.
func NewVertexIndex(g *Graph, cellSize float64) *VertexIndex {
	b := g.Bounds()
	if cellSize <= 0 {
		// Aim for a few vertices per cell on average.
		area := math.Max(b.Width()*b.Height(), 1e-9)
		cellSize = math.Sqrt(area / math.Max(float64(g.NumVertices()), 1) * 4)
		if cellSize <= 0 {
			cellSize = 1
		}
	}
	cols := int(b.Width()/cellSize) + 1
	rows := int(b.Height()/cellSize) + 1
	idx := &VertexIndex{
		g:        g,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		origin:   b.Min,
		cells:    make([][]int32, cols*rows),
	}
	for v := 0; v < g.NumVertices(); v++ {
		c := idx.cellOf(g.Point(VertexID(v)))
		idx.cells[c] = append(idx.cells[c], int32(v))
	}
	return idx
}

func (idx *VertexIndex) cellOf(p geo.Point) int {
	cx := int((p.X - idx.origin.X) / idx.cellSize)
	cy := int((p.Y - idx.origin.Y) / idx.cellSize)
	cx = clampInt(cx, 0, idx.cols-1)
	cy = clampInt(cy, 0, idx.rows-1)
	return cy*idx.cols + cx
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Nearest returns the vertex closest (in the plane) to p and its distance.
// It expands square rings of grid cells outward from p until the nearest
// candidate provably beats every unexplored cell.
func (idx *VertexIndex) Nearest(p geo.Point) (VertexID, float64) {
	best := VertexID(-1)
	bestD := math.Inf(1)
	cx := clampInt(int((p.X-idx.origin.X)/idx.cellSize), 0, idx.cols-1)
	cy := clampInt(int((p.Y-idx.origin.Y)/idx.cellSize), 0, idx.rows-1)
	maxRing := idx.cols
	if idx.rows > maxRing {
		maxRing = idx.rows
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Any vertex in a cell of this ring is at least (ring-1)*cellSize
		// from p, so once the best found beats that, stop.
		if best >= 0 && bestD <= float64(ring-1)*idx.cellSize {
			break
		}
		idx.forRing(cx, cy, ring, func(cell int) {
			for _, v := range idx.cells[cell] {
				if d := p.Dist(idx.g.Point(VertexID(v))); d < bestD {
					bestD = d
					best = VertexID(v)
				}
			}
		})
	}
	return best, bestD
}

// Within returns all vertices at planar distance ≤ radius from p,
// in increasing vertex-ID order.
func (idx *VertexIndex) Within(p geo.Point, radius float64) []VertexID {
	var out []VertexID
	if radius < 0 {
		return out
	}
	lo := idx.cellOf(geo.Point{X: p.X - radius, Y: p.Y - radius})
	hi := idx.cellOf(geo.Point{X: p.X + radius, Y: p.Y + radius})
	loX, loY := lo%idx.cols, lo/idx.cols
	hiX, hiY := hi%idx.cols, hi/idx.cols
	for cy := loY; cy <= hiY; cy++ {
		for cx := loX; cx <= hiX; cx++ {
			for _, v := range idx.cells[cy*idx.cols+cx] {
				if p.Dist(idx.g.Point(VertexID(v))) <= radius {
					out = append(out, VertexID(v))
				}
			}
		}
	}
	return out
}

// forRing invokes fn for each valid cell on the square ring at Chebyshev
// distance ring from (cx, cy). Ring 0 is the center cell itself.
func (idx *VertexIndex) forRing(cx, cy, ring int, fn func(cell int)) {
	if ring == 0 {
		fn(cy*idx.cols + cx)
		return
	}
	for dx := -ring; dx <= ring; dx++ {
		for _, dy := range [2]int{-ring, ring} {
			x, y := cx+dx, cy+dy
			if x >= 0 && x < idx.cols && y >= 0 && y < idx.rows {
				fn(y*idx.cols + x)
			}
		}
	}
	for dy := -ring + 1; dy <= ring-1; dy++ {
		for _, dx := range [2]int{-ring, ring} {
			x, y := cx+dx, cy+dy
			if x >= 0 && x < idx.cols && y >= 0 && y < idx.rows {
				fn(y*idx.cols + x)
			}
		}
	}
}
