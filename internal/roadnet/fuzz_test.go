package roadnet

import (
	"bytes"
	"testing"

	"uots/internal/geo"
)

// FuzzReadGraph asserts the binary graph reader never panics on arbitrary
// input: it must either parse a valid graph or return an error.
func FuzzReadGraph(f *testing.F) {
	// Seed with a real serialized graph plus structured corruptions.
	g := randomConnected(12, 8, 1)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(graphMagic))
	f.Add([]byte{})
	mutated := append([]byte(nil), valid...)
	mutated[len(graphMagic)+2] = 0xFF // corrupt the vertex count
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadGraph(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed graph must be structurally sound.
		if got.NumVertices() == 0 {
			t.Fatal("parsed graph has no vertices")
		}
		for v := 0; v < got.NumVertices(); v++ {
			to, w := got.Neighbors(VertexID(v))
			for i, tt := range to {
				if int(tt) >= got.NumVertices() || tt < 0 {
					t.Fatalf("edge to out-of-range vertex %d", tt)
				}
				if !(w[i] > 0) {
					t.Fatalf("non-positive edge weight %g", w[i])
				}
			}
		}
	})
}

// FuzzSearchFaces builds a small weighted graph from the input, connected
// or not, and checks every search face against floydWarshall and a reused
// workspace against a fresh one (checkFaces).
func FuzzSearchFaces(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 6, 0, 1, 3, 1, 2, 7, 2, 3, 1, 3, 4, 15})
	f.Add([]byte{11, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 12, 0, 1, 0, 1, 2, 9, 4, 5, 2, 7, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		seed := uint64(len(data))
		var b Builder
		n := 1 + next()%12
		for i := 0; i < n; i++ {
			b.AddVertex(geo.Point{X: float64(next() % 8), Y: float64(next() % 8)})
		}
		for m := next() % 32; m > 0; m-- {
			u, v, w := VertexID(next()%n), VertexID(next()%n), 0.25*float64(1+next()%16)
			if u != v && !b.HasEdge(u, v) {
				if err := b.AddEdge(u, v, w); err != nil {
					t.Fatal(err)
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkFaces(t, g, seed, 8, scanFace, interleaveFace, ssspFace, goalSearchFace, bidirectionalFace)
	})
}
