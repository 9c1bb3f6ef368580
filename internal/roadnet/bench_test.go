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
