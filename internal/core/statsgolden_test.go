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
)

var updateStats = flag.Bool("update-stats", false, "rewrite testdata/stats.golden from the current engine")

// TestWorkCountersGolden pins the deterministic work counters —
// SearchStats minus Elapsed — of every search on one seeded corpus: the
// five variants, both exhaustive baselines and TextFirst, at λ ∈ {0, 0.5,
// 1}, on a plain engine and on an Options.Index engine. A refactor that
// claims "same work" commits the golden unchanged; a change that moves a
// counter regenerates it with -update-stats and says why.
func TestWorkCountersGolden(t *testing.T) {
	tb, _ := testBounds(t)
	plain, f := newTestEngine(t, Options{})
	indexed, _ := newTestEngine(t, Options{Index: tb})
	engines := []struct {
		name string
		e    *Engine
	}{{"plain", plain}, {"index", indexed}}

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
	rng := rand.New(rand.NewPCG(1201, 0))
	for qi := 0; qi < 4; qi++ {
		q := f.randomQuery(rng, 2+qi%3, 2+qi%3, 0, 3+2*qi)
		for _, lambda := range []float64{0, 0.5, 1} {
			q.Lambda = lambda
			for _, kind := range kinds {
				for _, eng := range engines {
					res, s, err := kind.run(eng.e, context.Background(), q)
					if err != nil {
						t.Fatalf("q%d λ=%g %s/%s: %v", qi, lambda, kind.name, eng.name, err)
					}
					fmt.Fprintf(&b, "q%d lambda=%g %s/%s results=%d visited=%d scans=%d settled=%d candidates=%d textScored=%d probes=%d sharedPrunes=%d landmarkPrunes=%d early=%t\n",
						qi, lambda, kind.name, eng.name, len(res),
						s.VisitedTrajectories, s.ScanEvents, s.SettledVertices, s.Candidates,
						s.TextScored, s.Probes, s.SharedBoundPrunes, s.LandmarkPrunes, s.EarlyTerminated)
				}
			}
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
		t.Fatalf("%v (generate it with go test ./internal/core -run TestWorkCountersGolden -update-stats)", err)
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
