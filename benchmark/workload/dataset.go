// Package workload holds everything the end-to-end driver
// (uots/benchmark) and the traced replay (uots/benchmark/layers) must
// agree on: the dataset, the request lists of the four workloads, the
// percentile arithmetic and the result line the outer driver parses.
//
// It depends only on the public uots facade and the standard library, so
// the inputs of the gate survive refactors of uots/internal.
package workload

import (
	"fmt"
	"os"

	"uots"
)

// The dataset is the `medium` BRN shape of EXPERIMENTS.md: big enough
// that a default query costs milliseconds rather than the `small`
// profile's noise-dominated 0.3 ms. Shrink request counts, never these.
const (
	CityScale     = 0.5 // BRNLike(0.5, ·) → 7 056 vertices
	Trips         = 30000
	MeanSamples   = 50
	Topics        = 12
	TermsPerTopic = 80

	// CorpusSeed fixes the city, its trips and the query populations
	// drawn over them: together they are the benchmark's reference
	// dataset, the way a road-network file and a query log would be.
	// -seed varies the order the queries arrive in and the trips the
	// writer copies (see the population sizes in requests.go for why).
	CorpusSeed = 1
)

// Dataset is the generated corpus, kept in process for request
// generation and for the correctness oracle.
type Dataset struct {
	Graph *uots.Graph
	Store *uots.Store
}

// Generate builds the corpus exactly as `uotsdgen -city brn -scale 0.5
// -trajs 30000 -mean 50 -seed 1` does.
func Generate() (*Dataset, error) {
	const seed = CorpusSeed
	g := uots.BRNLike(CityScale, seed)
	vocab := uots.GenerateVocab(Topics, TermsPerTopic, 1.0, seed^0x5bf0f3a9)
	db, err := uots.GenerateTrajectories(g, uots.TrajGenOptions{
		Count:       Trips,
		MeanSamples: MeanSamples,
		Vocab:       vocab,
		Seed:        seed ^ 0x243f6a88,
	})
	if err != nil {
		return nil, fmt.Errorf("generating trajectories: %w", err)
	}
	return &Dataset{Graph: g, Store: db}, nil
}

// Write stores the dataset as <prefix>.graph and <prefix>.trajs, the
// files uotsserve and uotsshard load with -data <prefix>.
func (d *Dataset) Write(prefix string) error {
	if err := writeFile(prefix+".graph", func(f *os.File) error { return uots.WriteGraph(f, d.Graph) }); err != nil {
		return err
	}
	return writeFile(prefix+".trajs", func(f *os.File) error { return uots.WriteStore(f, d.Store) })
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
