package main

import (
	"math"
	"strings"
	"testing"

	"uots/benchmark/workload"
)

func TestJudgeAtInsideAndBeyondTheBound(t *testing.T) {
	lower := metricSpec{Name: "search_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.10}
	tests := []struct {
		name     string
		m        metricSpec
		old, new []float64
		want     verdict
	}{
		{"lower: inside", lower, []float64{100}, []float64{105}, verdictOK},
		{"lower: exactly at the bound", lower, []float64{100}, []float64{110}, verdictOK},
		{"lower: beyond", lower, []float64{100}, []float64{110.5}, verdictWorse},
		{"lower: much better", lower, []float64{100}, []float64{50}, verdictOK},
		{"higher: inside", higher, []float64{200}, []float64{190}, verdictOK},
		{"higher: exactly at the bound", higher, []float64{200}, []float64{180}, verdictOK},
		{"higher: beyond", higher, []float64{200}, []float64{179}, verdictWorse},
		{"higher: much better", higher, []float64{200}, []float64{400}, verdictOK},
		{"medians decide, not single runs", lower, []float64{100, 100, 300}, []float64{105, 105, 900}, verdictOK},
		{"a side noisier than the bound resolves nothing", lower,
			[]float64{80, 90, 100, 110, 120, 130}, []float64{200, 200, 200, 200, 200, 200}, verdictUnresolved},
		{"tight runs on both sides resolve a regression", lower,
			[]float64{99, 100, 100, 101}, []float64{119, 120, 120, 121}, verdictWorse},
	}
	for _, tc := range tests {
		if got, _, _, _ := judge(tc.m, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	_, om, nm, by := judge(higher, []float64{200}, []float64{180})
	if om != 200 || nm != 180 || math.Abs(by-0.10) > 1e-12 {
		t.Errorf("judge reported old %g new %g worse-by %g", om, nm, by)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := spreadOf(ten); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spreadOf(1..10) = %g, want 1", got)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if got := spreadOf([]float64{1, 2, 4, 8}); math.Abs(got-5.75/3) > 1e-12 {
		t.Errorf("spreadOf(1,2,4,8) = %g, want %g", got, 5.75/3)
	}
	if got := spreadOf([]float64{1, 2, 3}); got != 0 {
		t.Errorf("three values have no usable quartiles, got %g", got)
	}
}

func TestCompareResultsCountsFailuresAndInput(t *testing.T) {
	sp, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	set := func(p50 float64, failed int, sha string) *results {
		r := &results{Workloads: map[string]*workloadResults{}}
		for _, w := range sp.Workloads {
			wr := &workloadResults{Attempted: 1000, Failed: failed, EndToEnd: map[string][]float64{}, ReadsSHA256: []string{sha}, WritesSHA256: []string{""}}
			for _, m := range sp.EndToEnd {
				wr.EndToEnd[m.Name] = []float64{p50}
			}
			r.Workloads[w.Name] = wr
		}
		return r
	}
	var out strings.Builder
	if err := compareResults(&out, sp, set(10, 0, "a"), set(10, 0, "a")); err != nil {
		t.Errorf("identical sets compared as %v\n%s", err, out.String())
	}
	if err := compareResults(&out, sp, set(10, 0, "a"), set(10, 2, "a")); err == nil {
		t.Error("a fail ratio rising by 0.002 passed")
	}
	if err := compareResults(&out, sp, set(10, 0, "a"), set(10, 1, "a")); err != nil {
		t.Errorf("a fail ratio rising by exactly 0.001 failed: %v", err)
	}
	if err := compareResults(&out, sp, set(10, 0, "a"), set(10, 0, "b")); err == nil {
		t.Error("sets that received different request bytes were compared")
	}
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the driver in step:
// the workloads and gated metrics it names are the ones this program
// runs and prints.
func TestSpecMatchesProgram(t *testing.T) {
	sp, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workload.Names, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workload.Names)
	}
	names = nil
	for _, m := range sp.EndToEnd {
		names = append(names, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	if strings.Join(names, ",") != strings.Join(e2eMetrics, ",") {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", names, e2eMetrics)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", sp.RunSeconds)
	}
}
