package core

import (
	"context"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

var updateStats = flag.Bool("update-stats", false, "rewrite testdata/stats.golden from the current engine")

// TestWorkCountersGolden pins the deterministic work counters —
// SearchStats minus Elapsed — of every search on one seeded corpus: the
// five variants, both exhaustive baselines and TextFirst, at λ ∈ {0, 0.5,
// 1}, on a plain engine (rows named "/plain"); and of the plain
// search on an NRN-like corpus at λ ∈ {0.1, 0.3}, where text probes
// decide the cost. A refactor that claims "same work" commits the golden
// unchanged; a change that moves a counter regenerates it with
// make stats-golden and says why.
func TestWorkCountersGolden(t *testing.T) {
	e, f := newTestEngine(t, Options{})

	window := TimeWindow{From: 7 * 3600, To: 11 * 3600}
	kinds := []ctxVariant{
		{"search", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.SearchCtx(ctx, q)
		}},
		{"threshold", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.SearchThresholdCtx(ctx, q, 0.4)
		}},
		{"windowed", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.SearchWindowedCtx(ctx, q, window)
		}},
		{"orderaware", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.OrderAwareSearchCtx(ctx, q)
		}},
		{"diversified", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.DiversifiedSearchCtx(ctx, q, DiversifyOptions{})
		}},
		{"exhaustive", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.ExhaustiveSearchCtx(ctx, q)
		}},
		{"exhaustive-threshold", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.ExhaustiveThresholdCtx(ctx, q, 0.4)
		}},
		{"textfirst", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.TextFirstSearchCtx(ctx, q)
		}},
	}

	var b strings.Builder
	row := func(name string, res []Result, s SearchStats) {
		fmt.Fprintf(&b, "%s results=%d visited=%d scans=%d settled=%d probeSettled=%d candidates=%d textScored=%d probes=%d sharedPrunes=%d landmarkPrunes=%d early=%t\n",
			name, len(res), s.VisitedTrajectories, s.ScanEvents, s.SettledVertices, s.ProbeSettled, s.Candidates,
			s.TextScored, s.Probes, s.SharedBoundPrunes, s.LandmarkPrunes, s.EarlyTerminated)
	}
	rng := rand.New(rand.NewPCG(1201, 0))
	for qi := 0; qi < 4; qi++ {
		q := f.randomQuery(rng, 2+qi%3, 2+qi%3, 0, 3+2*qi)
		for _, lambda := range []float64{0, 0.5, 1} {
			q.Lambda = lambda
			for _, kind := range kinds {
				res, s, err := kind.run(e, context.Background(), q)
				if err != nil {
					t.Fatalf("q%d λ=%g %s: %v", qi, lambda, kind.name, err)
				}
				row(fmt.Sprintf("q%d lambda=%g %s/plain", qi, lambda, kind.name), res, s)
			}
		}
	}

	g := roadnet.NRNLike(0.1, 3)
	vocab := textual.GenerateVocab(6, 40, 1.0, 11)
	db, err := trajdb.Generate(g, trajdb.GenOptions{Count: 1000, MeanSamples: 20, Vocab: vocab, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	nrn := fixture{g: g, vocab: vocab, db: db}
	e, err = NewEngine(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 4; qi++ {
		q := nrn.randomQuery(rng, 4, 3, 0, 10)
		for _, lambda := range []float64{0.1, 0.3} {
			q.Lambda = lambda
			res, s, err := e.SearchCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("nrn q%d λ=%g: %v", qi, lambda, err)
			}
			row(fmt.Sprintf("nrn q%d lambda=%g search/plain", qi, lambda), res, s)
		}
	}

	path := filepath.Join("testdata", "stats.golden")
	if *updateStats {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with make stats-golden)", err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, this run %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("work counters moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
