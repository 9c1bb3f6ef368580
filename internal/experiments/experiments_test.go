package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"uots/internal/core"
)

// tinyProfile keeps experiment tests fast.
func tinyProfile() Profile {
	return Profile{
		Name: "tiny", BRNScale: 0.08, BRNTrajs: 400,
		NRNScale: 0.05, NRNTrajs: 500,
		Queries: 2, MeanLength: 12, Seed: 3,
	}
}

func TestDatasetSpecBuild(t *testing.T) {
	ds, err := DatasetSpec{City: CityBRN, Scale: 0.08, Trajs: 200, MeanSamples: 10, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Store.NumTrajectories() != 200 {
		t.Fatalf("trajs = %d", ds.Store.NumTrajectories())
	}
	if ds.Graph.NumVertices() == 0 || !strings.Contains(ds.Name, "BRN") {
		t.Errorf("dataset = %q with %d vertices", ds.Name, ds.Graph.NumVertices())
	}
	if _, err := (DatasetSpec{Scale: 0}).Build(); err == nil {
		t.Error("zero scale should error")
	}
	nrn, err := DatasetSpec{City: CityNRN, Scale: 0.05, Trajs: 50, MeanSamples: 8, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nrn.Name, "NRN") {
		t.Errorf("NRN name = %q", nrn.Name)
	}
}

func TestBuildCachedMemoizes(t *testing.T) {
	spec := DatasetSpec{City: CityBRN, Scale: 0.08, Trajs: 100, MeanSamples: 8, Seed: 77}
	a, err := BuildCached(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCached(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same spec should return the same dataset instance")
	}
	if a.VertexIndex() != b.VertexIndex() {
		t.Error("lazy accessories should be shared")
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"small", "medium", "full"} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ProfileByName(%q) = (%+v, %v)", name, p, err)
		}
	}
	if _, err := ProfileByName("huge"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestGenQueriesShape(t *testing.T) {
	p := tinyProfile()
	ds, err := BuildCached(p.BRNSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultQuerySpec()
	spec.Locations = 3
	spec.Keywords = 2
	queries := GenQueries(ds, spec, 5)
	if len(queries) != 5 {
		t.Fatalf("got %d queries", len(queries))
	}
	bounds := ds.Graph.Bounds()
	diag := bounds.Min.Dist(bounds.Max)
	for i, q := range queries {
		if len(q.Locations) != 3 {
			t.Fatalf("query %d has %d locations", i, len(q.Locations))
		}
		if len(q.Keywords) == 0 || len(q.Keywords) > 2 {
			t.Fatalf("query %d has %d keywords", i, len(q.Keywords))
		}
		if q.Lambda != spec.Lambda || q.K != spec.K {
			t.Fatalf("query %d params wrong", i)
		}
		// Locality: every location within the spread of the anchor.
		anchor := ds.Graph.Point(q.Locations[0])
		for _, v := range q.Locations[1:] {
			if d := anchor.Dist(ds.Graph.Point(v)); d > 0.15*diag/2+1e-9 {
				t.Fatalf("query %d location %.2f km from anchor (spread %.2f)", i, d, 0.15*diag/2)
			}
		}
	}
	// Determinism.
	again := GenQueries(ds, spec, 5)
	for i := range queries {
		if queries[i].Locations[0] != again[i].Locations[0] {
			t.Fatal("GenQueries not deterministic")
		}
	}
}

func TestMeasureAgainstAllAlgorithms(t *testing.T) {
	p := tinyProfile()
	ds, err := BuildCached(p.BRNSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	queries := GenQueries(ds, DefaultQuerySpec(), 2)
	aggs, err := MeasureAll(context.Background(), ds, DefaultAlgos(), queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 4 {
		t.Fatalf("got %d aggregates", len(aggs))
	}
	for _, a := range aggs {
		if a.Queries != 2 {
			t.Errorf("%s: queries = %d", a.Algo, a.Queries)
		}
		if a.MeanVisited <= 0 || a.MeanCandidates <= 0 {
			t.Errorf("%s: zero work recorded: %+v", a.Algo, a)
		}
		if a.CandRatio < 0 || a.CandRatio > 1 || a.VisitRatio < 0 || a.VisitRatio > 1 {
			t.Errorf("%s: ratios out of range: %+v", a.Algo, a)
		}
	}
	// Exhaustive must visit everything; expansion must visit less.
	var exp, exh Aggregate
	for _, a := range aggs {
		switch a.Algo {
		case "expansion":
			exp = a
		case "exhaustive":
			exh = a
		}
	}
	if exh.VisitRatio != 1 {
		t.Errorf("exhaustive visit ratio = %g", exh.VisitRatio)
	}
	if exp.CandRatio >= exh.CandRatio {
		t.Errorf("expansion candidate ratio %g not below exhaustive %g", exp.CandRatio, exh.CandRatio)
	}
	// Threshold mode.
	aggs, err = MeasureAll(context.Background(), ds, []AlgoConfig{DefaultAlgos()[0], DefaultAlgos()[3]}, queries, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 2 {
		t.Fatalf("threshold mode: %d aggregates", len(aggs))
	}
}

func TestMeasurePropagatesErrors(t *testing.T) {
	p := tinyProfile()
	ds, err := BuildCached(p.BRNSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	bad := []core.Query{{Lambda: 0.5, K: 1}} // no locations
	if _, err := Measure(context.Background(), ds, DefaultAlgos()[0], bad, 0); err == nil {
		t.Error("invalid query should propagate an error")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := NewTable("demo", "a", "bbbb", "c")
	tab.AddRow("1", "2")
	tab.AddRow("long-cell", "x", "y")
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "## demo") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: the header's second column starts where rows' do.
	hIdx := strings.Index(lines[1], "bbbb")
	rIdx := strings.Index(lines[4], "x")
	if hIdx != rIdx {
		t.Errorf("column misaligned: header at %d, row at %d\n%s", hIdx, rIdx, out)
	}
}

func TestFormatHelpers(t *testing.T) {
	if fmtMs(250) != "250" || fmtMs(2.5) != "2.5" || fmtMs(0.25) != "0.250" {
		t.Error("fmtMs wrong")
	}
	if fmtCount(1500) != "1500" || fmtCount(3.25) != "3.2" {
		t.Error("fmtCount wrong")
	}
	if fmtRatio(0.1234) != "0.123" {
		t.Error("fmtRatio wrong")
	}
}

func TestExperimentsRegistry(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("registry has %d experiments", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Name == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
	}
	if _, err := ByName("pruning"); err != nil {
		t.Errorf("ByName(pruning): %v", err)
	}
	if _, err := ByName("T2"); err != nil {
		t.Errorf("ByName(T2): %v", err)
	}
	if _, err := ByName("nonsense"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunAllExperimentsTiny executes every registered experiment end to
// end on a tiny profile, checking they produce output and no errors.
func TestRunAllExperimentsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	p := tinyProfile()
	var buf bytes.Buffer
	if err := RunAll(context.Background(), &buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range All() {
		if !strings.Contains(out, "=== "+e.ID) {
			t.Errorf("output missing experiment %s", e.ID)
		}
	}
	if !strings.Contains(out, "expansion") || !strings.Contains(out, "exhaustive") {
		t.Error("output missing algorithm rows")
	}
}
