package uotsvet_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uots/internal/analysis/driver"
	"uots/internal/analysis/uotsvet"
)

// TestRegistry pins the analyzer suite: exactly these analyzers, each
// documented, runnable, covered by a fixture suite, and described in
// CONTRIBUTING.md. Adding or removing an analyzer must be a conscious
// act that updates this table (and CONTRIBUTING.md).
func TestRegistry(t *testing.T) {
	want := []struct {
		name       string
		docKeyword string // a phrase the Doc must contain
	}{
		{"ctxflow", "context"},
		{"storefault", "StoreError"},
	}

	contributing, err := os.ReadFile(filepath.Join("..", "..", "..", "CONTRIBUTING.md"))
	if err != nil {
		t.Fatalf("reading CONTRIBUTING.md: %v", err)
	}

	got := uotsvet.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	seen := make(map[string]bool)
	for i, w := range want {
		a := got[i]
		if a == nil {
			t.Fatalf("Analyzers()[%d] is nil", i)
		}
		if a.Name != w.name {
			t.Errorf("Analyzers()[%d].Name = %q, want %q (suite must stay in alphabetical order)", i, a.Name, w.name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer %q", a.Name)
		}
		seen[a.Name] = true
		if strings.TrimSpace(a.Doc) == "" {
			t.Errorf("analyzer %q has an empty Doc", a.Name)
		}
		if !strings.Contains(a.Doc, w.docKeyword) {
			t.Errorf("analyzer %q Doc does not mention %q", a.Name, w.docKeyword)
		}
		if !strings.HasPrefix(a.Doc, a.Name+":") {
			t.Errorf("analyzer %q Doc must start with %q for the help listing", a.Name, a.Name+":")
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has a nil Run", a.Name)
		}

		// Every analyzer ships a fixture suite: at least one package
		// under <analyzer>/testdata/src exercising its diagnostics.
		fixtures := filepath.Join("..", a.Name, "testdata", "src")
		entries, err := os.ReadDir(fixtures)
		if err != nil {
			t.Errorf("analyzer %q has no fixture tree at %s: %v", a.Name, fixtures, err)
		} else {
			dirs := 0
			for _, e := range entries {
				if e.IsDir() {
					dirs++
				}
			}
			if dirs == 0 {
				t.Errorf("analyzer %q has an empty fixture tree at %s", a.Name, fixtures)
			}
		}

		// Every analyzer is documented for contributors.
		if !strings.Contains(string(contributing), "`"+a.Name+"`") {
			t.Errorf("analyzer %q is not described in CONTRIBUTING.md", a.Name)
		}
	}
}

// TestTreeIsClean is `make lint` as a tier-1 test: the whole suite over
// every package of the module, through the same driver.Run bin/uotsvet
// calls. A finding fails it, and so does a //uots:allow that no longer
// suppresses anything.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	rep, err := driver.Run([]string{"uots/..."}, uotsvet.Analyzers())
	if err != nil {
		t.Fatalf("loading the module: %v", err)
	}
	for _, f := range rep.Findings {
		t.Errorf("finding: %s", f)
	}
	for _, s := range rep.StaleAllows {
		t.Errorf("stale allow: %s", s)
	}
	if rep.Allows == 0 || rep.AllowsInUse != rep.Allows-len(rep.StaleAllows) {
		t.Errorf("allow audit saw %d directive names, %d in use, %d stale — the run analyzed nothing, or the counts disagree",
			rep.Allows, rep.AllowsInUse, len(rep.StaleAllows))
	}
}
