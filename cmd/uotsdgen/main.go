// Command uotsdgen generates a synthetic dataset — a city road network
// shaped like one of the paper's evaluation cities plus a keyword-annotated
// trajectory corpus — and writes it to disk in the library's binary
// formats: <out>.graph (uots.ReadGraph) and the store file <out>.trajs,
// which uots.ReadStore loads into memory and uots.OpenDiskStore
// (uotsserve -disk <out>.trajs) serves from disk, warm-started from the
// index sidecar <out>.trajs.idx written beside it.
//
// Usage:
//
//	uotsdgen -city brn -scale 0.5 -trajs 50000 -out data/beijing
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"uots"
)

func main() {
	city := flag.String("city", "brn", "city shape: brn (sparse) or nrn (dense)")
	scale := flag.Float64("scale", 0.5, "city size relative to the published network")
	trajs := flag.Int("trajs", 50000, "number of trajectories")
	mean := flag.Int("mean", 72, "mean samples per trajectory")
	topics := flag.Int("topics", 12, "keyword topics")
	terms := flag.Int("terms", 80, "terms per topic")
	seed := flag.Uint64("seed", 1, "generation seed")
	out := flag.String("out", "dataset", "output path prefix")
	flag.Parse()

	// Refuse what would panic inside the generators or write a dataset
	// no server loads, before generating anything.
	switch {
	case *trajs < 1:
		fatal(fmt.Errorf("-trajs %d: want at least 1 trajectory", *trajs))
	case *topics < 1:
		fatal(fmt.Errorf("-topics %d: want at least 1 topic", *topics))
	case *terms < 1:
		fatal(fmt.Errorf("-terms %d: want at least 1 term per topic", *terms))
	case !(*scale > 0):
		fatal(fmt.Errorf("-scale %g: want a positive city size", *scale))
	}

	var g *uots.Graph
	switch *city {
	case "brn":
		g = uots.BRNLike(*scale, *seed)
	case "nrn":
		g = uots.NRNLike(*scale, *seed)
	default:
		fatal(fmt.Errorf("unknown city %q (want brn or nrn)", *city))
	}
	vocab := uots.GenerateVocab(*topics, *terms, 1.0, *seed^0x5bf0f3a9)
	db, err := uots.GenerateTrajectories(g, uots.TrajGenOptions{
		Count:       *trajs,
		MeanSamples: *mean,
		Vocab:       vocab,
		Seed:        *seed ^ 0x243f6a88,
	})
	if err != nil {
		fatal(err)
	}

	if dir := filepath.Dir(*out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
	}
	if err := writeFile(*out+".graph", func(f *os.File) error { return uots.WriteGraph(f, g) }); err != nil {
		fatal(err)
	}
	if err := uots.CreateDiskStore(*out+".trajs", db); err != nil {
		fatal(err)
	}
	st := db.Stats()
	fmt.Printf("wrote %s.graph (%d vertices, %d edges) and %s.trajs (%d trajectories, avg %.1f samples, avg %.1f keywords)\n",
		*out, g.NumVertices(), g.NumEdges(), *out, st.Trajectories, st.AvgSamples, st.AvgKeywords)
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uotsdgen:", err)
	os.Exit(1)
}
