// Package geo provides the planar geometry primitives used by the road
// network and map-matching substrates.
//
// Coordinates are planar and expressed in kilometres. Synthetic city
// networks are generated directly in this plane; real longitude/latitude
// data would be projected before entering the system (the projection is
// outside the scope of this library).
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane, in kilometres.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q in kilometres.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistSq returns the squared Euclidean distance between p and q. It avoids
// the square root for comparison-only call sites (nearest-neighbour scans).
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns the component-wise sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the component-wise difference p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Lerp returns the point at parameter t on the segment p→q
// (t=0 yields p, t=1 yields q; t is not clamped).
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4f, %.4f)", p.X, p.Y) }

// Rect is an axis-aligned bounding box. The zero Rect is empty.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns a rectangle that contains nothing: the starting value
// for growing a bounding box with ExtendPoint.
func EmptyRect() Rect {
	return Rect{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// RectOf returns the smallest rectangle containing all the given points.
// With no points it returns EmptyRect().
func RectOf(pts ...Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.ExtendPoint(p)
	}
	return r
}

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Width returns the horizontal extent of r (0 for empty rectangles).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.X - r.Min.X
}

// Height returns the vertical extent of r (0 for empty rectangles).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.Y - r.Min.Y
}

// Contains reports whether p lies inside r (boundaries included).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ExtendPoint returns the smallest rectangle containing r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)},
		Max: Point{math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)},
	}
}

// DistToPoint returns the distance from p to the rectangle (0 if inside).
func (r Rect) DistToPoint(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}
