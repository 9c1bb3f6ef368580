// Command mutants checks that the test suite kills a committed table of
// mutants: small, deliberate defects in the search code, each one a
// defect a test once caught (or was written to catch). For every mutant
// it writes the mutated copy of one file to a temporary directory and
// runs the named tests over it with `go test -overlay`, so the tree is
// never edited. A mutant whose tests all pass survives, and the run
// fails; so does a mutant whose text no longer occurs exactly once in
// its file, or whose mutated package does not build.
//
// Run it from the repository root as make mutants (go run ./internal/mutants).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

// mutant is one row of the table: in file, the one occurrence of old
// becomes new, and `go test -run run pkgs...` must then fail.
type mutant struct {
	name     string
	file     string
	old, new string
	pkgs     []string
	run      string
	why      string
}

var mutants = []mutant{
	{
		name: "collision",
		file: "internal/core/expansion.go",
		old:  "if !r.ok || r.mask != c.mask {",
		new:  "if !r.ok {",
		pkgs: []string{"./internal/core"},
		run:  "^TestTiesAtTheBar$",
		why:  "rescan's mask table drops the slot's mask check: colliding masks (|O| ≥ 6) share one radius bound",
	},
	{
		name: "one-slot",
		file: "internal/core/expansion.go",
		old:  "r := &memo[(c.mask*0x9e3779b97f4a7c15)>>58]\n\t\tif !r.ok || r.mask != c.mask {",
		new:  "r := &memo[0]\n\t\tif !r.ok {",
		pkgs: []string{"./internal/core"},
		run:  "^(TestWorkCountersGolden|TestTiesAtTheBar)$",
		why:  "every candidate in a rescan takes the radius bound of the first mask it met",
	},
	{
		name: "sweep-prune-at-bar",
		file: "internal/core/expansion.go",
		old:  "if haveBar && ub < bar {\n\t\t\tst.prune(tid, c, ub, bar)\n\t\t\tcontinue",
		new:  "if haveBar && ub <= bar {\n\t\t\tst.prune(tid, c, ub, bar)\n\t\t\tcontinue",
		pkgs: []string{"./internal/core"},
		run:  "^TestTiesAtTheBar$",
		why:  "rescan's sweep prunes a candidate whose bound equals the bar, dropping a tie it must keep",
	},
	{
		name: "rerank-stale-target",
		file: "internal/core/orderaware.go",
		old:  "\tgs.Target(uniq)\n",
		new:  "",
		pkgs: []string{"./internal/core"},
		run:  "^TestOrderAwareSearchIsExact$",
		why:  "the rerank steps its search against the last probe's target set, so another trip's vertices count as the scored trip's",
	},
	{
		name: "rerank-first-hit",
		file: "internal/core/orderaware.go",
		old:  "remaining--",
		new:  "remaining = 0",
		pkgs: []string{"./internal/core"},
		run:  "^(TestOrderAwareEvaluateMatchesBrute|TestOrderAwareSearchIsExact)$",
		why:  "the rerank stops a location's search at the trip's nearest vertex, leaving its other samples unreached",
	},
	{
		name: "rerank-no-poll",
		file: "internal/core/orderaware.go",
		old:  "\t\t\tif stats.ProbeSettled%cancelPollEvery == 0 {\n\t\t\t\tif err := cancel.check(); err != nil {\n\t\t\t\t\treturn Result{}, err\n\t\t\t\t}\n\t\t\t}\n",
		new:  "",
		pkgs: []string{"./internal/core"},
		run:  "^TestCancellationBoundsWork$",
		why:  "the rerank never polls its context, so a cancelled order-aware search scores every trip of the round",
	},
	{
		name: "pool-stale-cand",
		file: "internal/core/scratch.go",
		old:  "\tfor _, id := range s.admitted {\n\t\ts.cands[id] = nil\n\t}\n",
		new:  "",
		pkgs: []string{"./internal/core"},
		run:  "^(TestScratchComesBackClean|TestExpansionMatchesExhaustiveTopK)$",
		why:  "a pooled scratch keeps the last query's candidate table, so the next query meets another query's candidates as already scored",
	},
	{
		name: "pool-stale-text",
		file: "internal/core/scratch.go",
		old:  "\tfor _, id := range s.textIDs {\n\t\ts.text[id] = 0\n\t}\n",
		new:  "",
		pkgs: []string{"./internal/core"},
		run:  "^(TestScratchComesBackClean|TestExpansionMatchesExhaustiveTopK)$",
		why:  "a pooled scratch keeps the last query's text scores, so the next query scores trips by another query's keywords",
	},
	{
		name: "rescan-no-floor",
		file: "internal/core/expansion.go",
		old:  "gap = max(gap, (len(st.active)+d-1)/d)",
		new:  "gap = (len(st.active)+d-1)/d",
		pkgs: []string{"./internal/core"},
		run:  "^(TestWorkCountersGolden|TestRescanGapFollowsActiveSet)$",
		why:  "the gap between rescans loses its relabelEvery floor: a small active set is swept every few steps, an empty one never again",
	},
	{
		name: "batch-zero-shape",
		file: "internal/core/batch.go",
		old:  "if !scheduled[i] {",
		new:  "if out[i].Results == nil && out[i].Err == nil {",
		pkgs: []string{"./internal/core"},
		run:  "^TestFinalizeBatchTrustsScheduledSlots$",
		why:  "finalizeBatch takes a slot's zero shape for never scheduled, so a query that finished with no results is reported as cancelled",
	},
}

func main() {
	if err := runAll(); err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		os.Exit(1)
	}
}

// runAll checks every mutant and fails unless each one is killed.
func runAll() error {
	tmp, err := os.MkdirTemp("", "mutants")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var bad []string
	for _, m := range mutants {
		killers, err := m.check(tmp)
		if err != nil {
			fmt.Printf("%-20s FAIL  %v\n", m.name, err)
			bad = append(bad, m.name)
			continue
		}
		fmt.Printf("%-20s killed by %s\n", m.name, strings.Join(killers, ", "))
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d of %d mutants failed the check: %s", len(bad), len(mutants), strings.Join(bad, ", "))
	}
	return nil
}

var failLine = regexp.MustCompile(`(?m)^\s*--- FAIL: (\S+)`)

// check applies m through an overlay in dir and runs its tests. It
// returns the top-level tests that failed, or an error if the tests
// passed or the mutant cannot be applied or built.
func (m mutant) check(dir string) ([]string, error) {
	src, err := os.ReadFile(m.file)
	if err != nil {
		return nil, err
	}
	if n := strings.Count(string(src), m.old); n != 1 {
		return nil, fmt.Errorf("%s holds its text %d times, want once", m.file, n)
	}
	abs, err := filepath.Abs(m.file)
	if err != nil {
		return nil, err
	}
	mutated := filepath.Join(dir, m.name+".go")
	if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
		return nil, err
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
	if err != nil {
		return nil, err
	}
	overlayPath := filepath.Join(dir, m.name+".json")
	if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
		return nil, err
	}
	args := append([]string{"test", "-overlay", overlayPath, "-count=1", "-run", m.run}, m.pkgs...)
	out, err := exec.Command("go", args...).CombinedOutput()
	if err == nil {
		return nil, fmt.Errorf("survived: %s", m.why)
	}
	if strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]") {
		return nil, fmt.Errorf("does not build:\n%s", out)
	}
	var killers []string
	for _, sub := range failLine.FindAllStringSubmatch(string(out), -1) {
		if !strings.Contains(sub[1], "/") {
			killers = append(killers, sub[1])
		}
	}
	if len(killers) == 0 {
		killers = []string{"a failure outside any test (a panic or a timeout)"}
	}
	return killers, nil
}
