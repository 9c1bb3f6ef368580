package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"uots/benchmark/workload"
)

// spec is BENCHMARK.json: the workloads, the gated metrics and their
// bounds.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the old median it may get worse by
}

func loadSpec(path string) (*spec, error) {
	var sp spec
	if err := readJSON(path, &sp); err != nil {
		return nil, err
	}
	return &sp, nil
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// maxFailRatioIncrease is the bound on failed ÷ attempted, which is 0 on
// a healthy tree and so cannot be bounded as a share of itself.
const maxFailRatioIncrease = 0.001

// verdict of one workload × metric pair.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares the medians of one metric's old and new values. worseBy
// is the share of the old median the new one is worse by (negative when
// better). A spread (quartile distance ÷ median, known from four values
// up) wider than the bound on either side means the runs cannot resolve
// a change of that size: unresolved, not ok.
func judge(m metricSpec, old, new []float64) (v verdict, oldMed, newMed, worseBy float64) {
	oldMed, newMed = workload.Median(old), workload.Median(new)
	worseBy = (newMed - oldMed) / oldMed
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case spreadOf(old) > m.Bound || spreadOf(new) > m.Bound:
		v = verdictUnresolved
	case worseBy > m.Bound:
		v = verdictWorse
	default:
		v = verdictOK
	}
	return v, oldMed, newMed, worseBy
}

// spreadOf is the distance between the first and third quartile of vs as
// a share of its median, the quartiles as Python's
// statistics.quantiles(vs, n=4) gives them. Fewer than four values have
// no usable quartiles and report 0.
func spreadOf(vs []float64) float64 {
	if len(vs) < 4 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based, exclusive method
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (q(3) - q(1)) / workload.Median(s)
}

func compareFiles(sp *spec, oldPath, newPath string) error {
	var old, new results
	if err := readJSON(oldPath, &old); err != nil {
		return err
	}
	if err := readJSON(newPath, &new); err != nil {
		return err
	}
	return compareResults(os.Stdout, sp, &old, &new)
}

// compareResults prints one row per workload × end-to-end metric — old
// median, new median, their ratio with its base, and the verdict — and
// returns an error when any row is worse.
func compareResults(w io.Writer, sp *spec, old, new *results) error {
	worse := 0
	fmt.Fprintf(w, "%-16s %-16s %12s %12s %9s  %s\n", "workload", "metric", "old", "new", "new/old", "verdict (bound)")
	for _, ws := range sp.Workloads {
		o, n := old.Workloads[ws.Name], new.Workloads[ws.Name]
		if o == nil || n == nil {
			return fmt.Errorf("workload %s is missing from one of the files", ws.Name)
		}
		for i := range o.ReadsSHA256 {
			if i < len(n.ReadsSHA256) && (o.ReadsSHA256[i] != n.ReadsSHA256[i] || o.WritesSHA256[i] != n.WritesSHA256[i]) {
				return fmt.Errorf("workload %s run %d: the two files did not receive the same request bytes", ws.Name, i+1)
			}
		}
		for _, m := range sp.EndToEnd {
			v, om, nm, by := judge(m, o.EndToEnd[m.Name], n.EndToEnd[m.Name])
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-16s %-16s %12.4f %12.4f %9.4f  %s (worse by %+.1f%% of %.4f %s, bound %.0f%%)\n",
				ws.Name, m.Name, om, nm, nm/om, v, 100*by, om, m.Unit, 100*m.Bound)
		}
		of, nf := failRatio(o), failRatio(n)
		v := verdictOK
		if nf-of > maxFailRatioIncrease {
			v = verdictWorse
			worse++
		}
		fmt.Fprintf(w, "%-16s %-16s %12.6f %12.6f %9s  %s (failed ÷ attempted, bound +%g)\n",
			ws.Name, "fail_ratio", of, nf, "-", v, maxFailRatioIncrease)
	}
	if worse > 0 {
		return fmt.Errorf("%d workload × metric pairs are worse than their bound", worse)
	}
	return nil
}

func failRatio(w *workloadResults) float64 {
	if w.Attempted == 0 {
		return 1
	}
	return float64(w.Failed) / float64(w.Attempted)
}
