package roadnet

import (
	"fmt"
	"math/rand/v2"

	"uots/internal/geo"
)

// GridStyle selects the structural family of a generated city network.
type GridStyle int

const (
	// StyleSparse produces maze-like sparse networks (edge count ≈ vertex
	// count, mean degree ≈ 2): a random spanning tree over the grid plus a
	// small fraction of extra edges. This matches the published shape of
	// the Beijing Road Network dataset (28,342 vertices / 27,690 edges).
	StyleSparse GridStyle = iota
	// StyleDense produces dense urban grids (mean degree ≈ 5–6): full
	// horizontal/vertical connectivity plus probabilistic diagonals. This
	// matches the published shape of the New York Road Network dataset
	// (95,581 vertices / 260,855 edges).
	StyleDense
)

// CityOptions parameterizes GenerateCity.
type CityOptions struct {
	Rows, Cols int       // grid dimensions; Rows*Cols vertices before pruning
	Spacing    float64   // grid pitch in kilometres (default 0.25)
	Perturb    float64   // vertex jitter as a fraction of Spacing (default 0.3)
	Style      GridStyle // sparse (maze) or dense (urban grid)
	DiagProb   float64   // StyleDense: probability of each diagonal edge (default 0.35)
	ExtraFrac  float64   // StyleSparse: extra edges beyond the spanning tree, as a fraction of vertices (default 0.02)
	WeightLift float64   // edge weight = euclidean · U(1, 1+WeightLift), never below the euclidean length (default 0.15)
	Seed       uint64    // deterministic generation seed
}

func (o *CityOptions) applyDefaults() {
	if o.Spacing <= 0 {
		o.Spacing = 0.25
	}
	if o.Perturb < 0 {
		o.Perturb = 0
	} else if o.Perturb == 0 {
		o.Perturb = 0.3
	}
	if o.DiagProb <= 0 {
		o.DiagProb = 0.35
	}
	if o.ExtraFrac <= 0 {
		// Pure spanning-tree mazes produce absurdly windy shortest paths;
		// a modest shortcut fraction keeps edge count ≈ vertex count (the
		// published BRN shape) while restoring road-like distances.
		o.ExtraFrac = 0.06
	}
	if o.WeightLift <= 0 {
		o.WeightLift = 0.15
	}
}

// GenerateCity builds a synthetic road network with the given options.
// The result is always connected (the largest component is kept when
// pruning could disconnect the grid, though the construction below never
// disconnects it).
func GenerateCity(opts CityOptions) (*Graph, error) {
	if opts.Rows < 2 || opts.Cols < 2 {
		return nil, fmt.Errorf("roadnet: city grid needs at least 2x2, got %dx%d", opts.Rows, opts.Cols)
	}
	opts.applyDefaults()
	rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed^0x9e3779b97f4a7c15))

	var b Builder
	rows, cols := opts.Rows, opts.Cols
	id := func(r, c int) VertexID { return VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			jx := (rng.Float64()*2 - 1) * opts.Perturb * opts.Spacing
			jy := (rng.Float64()*2 - 1) * opts.Perturb * opts.Spacing
			b.AddVertex(geo.Point{
				X: float64(c)*opts.Spacing + jx,
				Y: float64(r)*opts.Spacing + jy,
			})
		}
	}
	weight := func(u, v VertexID) float64 {
		d := b.pts[u].Dist(b.pts[v])
		if d == 0 {
			d = 1e-6 // perturbation collisions are astronomically unlikely but must not yield zero weights
		}
		return d * (1 + rng.Float64()*opts.WeightLift)
	}

	switch opts.Style {
	case StyleDense:
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if c+1 < cols {
					if err := b.AddEdge(id(r, c), id(r, c+1), weight(id(r, c), id(r, c+1))); err != nil {
						return nil, err
					}
				}
				if r+1 < rows {
					if err := b.AddEdge(id(r, c), id(r+1, c), weight(id(r, c), id(r+1, c))); err != nil {
						return nil, err
					}
				}
				if r+1 < rows && c+1 < cols && rng.Float64() < opts.DiagProb {
					if err := b.AddEdge(id(r, c), id(r+1, c+1), weight(id(r, c), id(r+1, c+1))); err != nil {
						return nil, err
					}
				}
				if r+1 < rows && c > 0 && rng.Float64() < opts.DiagProb {
					if err := b.AddEdge(id(r, c), id(r+1, c-1), weight(id(r, c), id(r+1, c-1))); err != nil {
						return nil, err
					}
				}
			}
		}
	case StyleSparse:
		if err := buildMaze(&b, rows, cols, opts, rng, weight); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("roadnet: unknown grid style %d", opts.Style)
	}
	return b.Build()
}

// buildMaze carves a uniform-ish random spanning tree over the grid with an
// iterative randomized DFS, then sprinkles extra grid edges.
func buildMaze(b *Builder, rows, cols int, opts CityOptions, rng *rand.Rand, weight func(u, v VertexID) float64) error {
	id := func(r, c int) VertexID { return VertexID(r*cols + c) }
	visited := make([]bool, rows*cols)
	type cell struct{ r, c int }
	stack := []cell{{rng.IntN(rows), rng.IntN(cols)}}
	visited[int(id(stack[0].r, stack[0].c))] = true
	dirs := [4][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		// Collect unvisited neighbours.
		var opts4 [4]cell
		n := 0
		for _, d := range dirs {
			nr, nc := cur.r+d[0], cur.c+d[1]
			if nr >= 0 && nr < rows && nc >= 0 && nc < cols && !visited[int(id(nr, nc))] {
				opts4[n] = cell{nr, nc}
				n++
			}
		}
		if n == 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		next := opts4[rng.IntN(n)]
		u, v := id(cur.r, cur.c), id(next.r, next.c)
		if err := b.AddEdge(u, v, weight(u, v)); err != nil {
			return err
		}
		visited[int(v)] = true
		stack = append(stack, next)
	}
	// Extra edges: random grid-adjacent pairs not already connected.
	extra := int(opts.ExtraFrac * float64(rows*cols))
	for added, attempts := 0, 0; added < extra && attempts < extra*20; attempts++ {
		r, c := rng.IntN(rows), rng.IntN(cols)
		d := dirs[rng.IntN(4)]
		nr, nc := r+d[0], c+d[1]
		if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
			continue
		}
		u, v := id(r, c), id(nr, nc)
		if b.HasEdge(u, v) {
			continue
		}
		if err := b.AddEdge(u, v, weight(u, v)); err != nil {
			return err
		}
		added++
	}
	return nil
}

// BRNLike generates a sparse, Beijing-Road-Network-shaped city. scale=1
// yields ≈28.4k vertices and ≈29k edges (mean degree ≈2, matching the
// published BRN statistics); smaller scales shrink the vertex count
// quadratically for test- and laptop-sized runs.
func BRNLike(scale float64, seed uint64) *Graph {
	rows := max(2, int(168*scale))
	cols := max(2, int(169*scale))
	g, err := GenerateCity(CityOptions{
		Rows: rows, Cols: cols,
		Style: StyleSparse,
		Seed:  seed,
	})
	if err != nil {
		panic("roadnet: BRNLike generation cannot fail: " + err.Error())
	}
	return g
}

// NRNLike generates a dense, New-York-Road-Network-shaped city. scale=1
// yields ≈96k vertices and ≈260k edges (mean degree ≈5.4, matching the
// published NRN statistics).
func NRNLike(scale float64, seed uint64) *Graph {
	rows := max(2, int(310*scale))
	cols := max(2, int(310*scale))
	g, err := GenerateCity(CityOptions{
		Rows: rows, Cols: cols,
		Style:    StyleDense,
		DiagProb: 0.36,
		Seed:     seed,
	})
	if err != nil {
		panic("roadnet: NRNLike generation cannot fail: " + err.Error())
	}
	return g
}
