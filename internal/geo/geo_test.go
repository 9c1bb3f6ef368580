package geo

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{1.5, 2.5}, Point{1.5, 2.5}, 0},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almostEq(got, c.want) {
			t.Errorf("Dist(%v, %v) = %g, want %g", c.p, c.q, got, c.want)
		}
		if got := c.p.DistSq(c.q); !almostEq(got, c.want*c.want) {
			t.Errorf("DistSq(%v, %v) = %g, want %g", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 500; i++ {
		a := Point{rng.Float64() * 100, rng.Float64() * 100}
		b := Point{rng.Float64() * 100, rng.Float64() * 100}
		c := Point{rng.Float64() * 100, rng.Float64() * 100}
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-9 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestPointArithmetic(t *testing.T) {
	p, q := Point{1, 2}, Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v, want %v", got, p)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v, want %v", got, q)
	}
	if got := p.Lerp(q, 0.5); got != (Point{2, -1}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestEmptyRect(t *testing.T) {
	r := EmptyRect()
	if !r.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	if r.Width() != 0 || r.Height() != 0 {
		t.Errorf("empty rect has extent %g×%g", r.Width(), r.Height())
	}
	if r.Contains(Point{0, 0}) {
		t.Error("empty rect contains a point")
	}
	if !math.IsInf(r.DistToPoint(Point{0, 0}), 1) {
		t.Error("distance to empty rect should be +Inf")
	}
	one := Point{1, 1}
	if got := r.ExtendPoint(one); got != (Rect{one, one}) {
		t.Errorf("empty extended by %v = %v", one, got)
	}
}

func TestRectOfAndContains(t *testing.T) {
	r := RectOf(Point{1, 5}, Point{3, 2}, Point{2, 7})
	if r.Min != (Point{1, 2}) || r.Max != (Point{3, 7}) {
		t.Fatalf("RectOf bounds = %v..%v", r.Min, r.Max)
	}
	for _, p := range []Point{{1, 2}, {3, 7}, {2, 4}} {
		if !r.Contains(p) {
			t.Errorf("rect should contain %v", p)
		}
	}
	for _, p := range []Point{{0.9, 4}, {3.1, 4}, {2, 1.9}, {2, 7.1}} {
		if r.Contains(p) {
			t.Errorf("rect should not contain %v", p)
		}
	}
}

func TestRectDistToPoint(t *testing.T) {
	r := RectOf(Point{0, 0}, Point{2, 2})
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{1, 1}, 0},    // inside
		{Point{2, 2}, 0},    // corner
		{Point{3, 1}, 1},    // right of
		{Point{1, -2}, 2},   // below
		{Point{5, 6}, 5},    // diagonal 3-4-5
		{Point{-3, -4}, 5},  // diagonal other corner
		{Point{0, 2.5}, .5}, // above edge
	}
	for _, c := range cases {
		if got := r.DistToPoint(c.p); !almostEq(got, c.want) {
			t.Errorf("DistToPoint(%v) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestRectDistLowerBoundsMemberDistProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 500; i++ {
		members := make([]Point, 1+rng.IntN(6))
		for j := range members {
			members[j] = Point{rng.Float64() * 10, rng.Float64() * 10}
		}
		r := RectOf(members...)
		p := Point{rng.Float64()*30 - 10, rng.Float64()*30 - 10}
		lb := r.DistToPoint(p)
		for _, m := range members {
			if lb > p.Dist(m)+1e-9 {
				t.Fatalf("rect distance %g exceeds member distance %g", lb, p.Dist(m))
			}
		}
	}
}
