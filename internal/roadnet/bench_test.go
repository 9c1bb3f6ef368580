package roadnet

import (
	"math/rand/v2"
	"testing"

	"uots/internal/geo"
)

func benchCity(b *testing.B) *Graph {
	b.Helper()
	return NRNLike(0.15, 1) // ≈2.1k vertices, dense
}

func BenchmarkSSSPFull(b *testing.B) {
	g := benchCity(b)
	s := NewSSSP(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(VertexID(i % g.NumVertices()))
	}
}

func BenchmarkBidirectionalDist(b *testing.B) {
	g := benchCity(b)
	bd := NewBidirectional(g)
	rng := rand.New(rand.NewPCG(1, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := VertexID(rng.IntN(g.NumVertices()))
		v := VertexID(rng.IntN(g.NumVertices()))
		bd.Dist(u, v)
	}
}

func BenchmarkScanDrain(b *testing.B) {
	g := benchCity(b)
	gs := NewGoalSearch(g, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs.Reset([]VertexID{VertexID(i % g.NumVertices())})
		for {
			if _, _, _, ok := gs.Scan(0); !ok {
				break
			}
		}
	}
}

// BenchmarkGoalSearchStep drains a four-root goal search on the
// benchmark's city (BRNLike(0.5, 1), 7 056 vertices), stepping the runs
// in turn, and reports the cost of one Step as ns/settle.
func BenchmarkGoalSearchStep(b *testing.B) {
	g := BRNLike(0.5, 1)
	n := g.NumVertices()
	gs := NewGoalSearch(g, nil)
	settles := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roots := []VertexID{VertexID(i % n), VertexID((i + n/4) % n), VertexID((i + n/2) % n), VertexID((i + 3*n/4) % n)}
		gs.Reset(roots)
		for open := len(roots); open > 0; {
			open = 0
			for j := range roots {
				if _, _, ok := gs.Step(j); ok {
					settles++
					open++
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(settles), "ns/settle")
}

func BenchmarkVertexIndexNearest(b *testing.B) {
	g := benchCity(b)
	idx := NewVertexIndex(g, 0)
	rng := rand.New(rand.NewPCG(5, 6))
	bounds := g.Bounds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geo.Point{
			X: bounds.Min.X + rng.Float64()*bounds.Width(),
			Y: bounds.Min.Y + rng.Float64()*bounds.Height(),
		}
		idx.Nearest(p)
	}
}

func BenchmarkLandmarkLowerBound(b *testing.B) {
	g := benchCity(b)
	lm := NewLandmarks(g, 16, 0)
	rng := rand.New(rand.NewPCG(7, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := VertexID(rng.IntN(g.NumVertices()))
		v := VertexID(rng.IntN(g.NumVertices()))
		lm.LowerBound(u, v)
	}
}

func BenchmarkGenerateCitySparse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateCity(CityOptions{Rows: 40, Cols: 40, Style: StyleSparse, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
