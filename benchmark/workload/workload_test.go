package workload

import (
	"bytes"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	const penalty = 1e6
	tests := []struct {
		name      string
		sorted    []float64
		attempted int
		p, want   float64
	}{
		{"n=1 p50", []float64{7}, 1, 50, 7},
		{"n=1 p95", []float64{7}, 1, 95, 7},
		{"n=2 p50 is the lower", []float64{3, 9}, 2, 50, 3},
		{"n=2 p95 is the upper", []float64{3, 9}, 2, 95, 9},
		{"n=100 p50", hundred, 100, 50, 50},
		{"n=100 p95", hundred, 100, 95, 95},
		{"n=100 p99", hundred, 100, 99, 99},
		{"n=100 p100", hundred, 100, 100, 100},
		{"just above a rank boundary rounds up", hundred, 100, 95.01, 96},
		{"failures sit above every success", hundred[:90], 100, 95, penalty},
		{"failures leave the median alone", hundred[:90], 100, 50, 50},
		{"last success before the failures", hundred[:90], 100, 90, 90},
		{"nothing attempted", nil, 0, 50, penalty},
	}
	for _, tc := range tests {
		if got := Percentile(tc.sorted, tc.attempted, tc.p, penalty); got != tc.want {
			t.Errorf("%s: Percentile = %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	ms := []float64{5, 1, 3}
	if s := Summarize(ms, 3, 0); s.N != 3 || s.P50 != 3 || s.P95 != 5 {
		t.Errorf("Summarize = %+v", s)
	}
	if ms[0] != 5 {
		t.Error("Summarize sorted its argument")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("odd median = %g", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestPacedSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	if got := Due(start, 40, 40); !got.Equal(start.Add(time.Second)) {
		t.Errorf("40th request at 40/s is due at %v", got.Sub(start))
	}
	if got := Due(start, 1, 40); got.Sub(start) != 25*time.Millisecond {
		t.Errorf("spacing at 40/s = %v", got.Sub(start))
	}
	due := start.Add(100 * time.Millisecond)
	// Sent on time: latency is the service time.
	lat, late := PacedLatency(due, due, due.Add(3*time.Millisecond))
	if lat != 3*time.Millisecond || late != 0 {
		t.Errorf("on time: latency %v late %v", lat, late)
	}
	// The previous request stalled, so this one left 40 ms late: the
	// wait is charged to it.
	sent := due.Add(40 * time.Millisecond)
	lat, late = PacedLatency(due, sent, sent.Add(3*time.Millisecond))
	if lat != 43*time.Millisecond || late != 40*time.Millisecond {
		t.Errorf("late send: latency %v late %v, want 43ms and 40ms", lat, late)
	}
	// Woken early by the timer: not negative lateness.
	if _, late = PacedLatency(due, due.Add(-time.Millisecond), due); late != 0 {
		t.Errorf("early send reported %v late", late)
	}
}

var (
	datasetOnce sync.Once
	dataset     *Dataset
	datasetErr  error
)

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	datasetOnce.Do(func() { dataset, datasetErr = Generate() })
	if datasetErr != nil {
		t.Fatal(datasetErr)
	}
	return dataset
}

func TestRequestsArePureFunctionOfSeed(t *testing.T) {
	d := testDataset(t)
	build := func(name string, seed uint64) *Workload {
		t.Helper()
		w, err := Build(d, name, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, name := range Names {
		a, b, other := build(name, 7), build(name, 7), build(name, 8)
		if SHA256(a.Reads) != SHA256(b.Reads) || SHA256(a.Writes) != SHA256(b.Writes) {
			t.Errorf("%s: two builds from seed 7 differ", name)
		}
		if SHA256(a.Reads) == SHA256(other.Reads) {
			t.Errorf("%s: seeds 7 and 8 generate the same reads", name)
		}
		if name == "ingest-mixed" {
			if len(a.Writes) != 2*WritesPerSec {
				t.Errorf("ingest-mixed: %d writes for 2 s, want %d", len(a.Writes), 2*WritesPerSec)
			}
			if SHA256(a.Writes) == SHA256(other.Writes) {
				t.Error("ingest-mixed: seeds 7 and 8 generate the same writes")
			}
		} else if len(a.Writes) != 0 {
			t.Errorf("%s has writes", name)
		}
	}

	def, remote, ingest := build("search-default", 7), build("search-remote", 7), build("ingest-mixed", 7)
	if SHA256(remote.Reads) != SHA256(def.Reads) {
		t.Error("search-remote does not send search-default's list byte for byte")
	}
	if SHA256(ingest.Reads) != SHA256(def.Reads) {
		t.Error("ingest-mixed does not read search-default's list")
	}
	if _, err := Build(d, "no-such-workload", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestSeedOnlyReordersThePopulation pins the variance-reduction design:
// two seeds send the same queries, in a different order.
func TestSeedOnlyReordersThePopulation(t *testing.T) {
	d := testDataset(t)
	bodies := func(name string, seed uint64) []string {
		w, err := Build(d, name, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(w.Reads))
		for i, r := range w.Reads {
			out[i] = string(r.Body)
		}
		sort.Strings(out)
		return out
	}
	for name, size := range map[string]int{"search-default": defaultPopulation, "variants-mix": variantPopulation} {
		a, b := bodies(name, 1), bodies(name, 2)
		if len(a) != size {
			t.Errorf("%s: %d requests, want the population of %d", name, len(a), size)
		}
		if !slices.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 send different sets of queries", name)
		}
	}
}

func TestRequestShapes(t *testing.T) {
	d := testDataset(t)
	w, err := Build(d, "variants-mix", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	perKind := map[Kind]int{}
	for i, r := range w.Reads {
		perKind[r.Kind]++
		if want := VariantKinds[i%len(VariantKinds)]; r.Kind != want {
			t.Fatalf("read %d is %s, want round-robin %s", i, r.Kind, want)
		}
		wantPath, wantSearches := "/search", 1
		if r.Kind == KindBatch {
			wantPath, wantSearches = "/batch", BatchSize
		}
		if r.Path != wantPath || len(r.Searches) != wantSearches {
			t.Fatalf("read %d (%s): path %s with %d searches", i, r.Kind, r.Path, len(r.Searches))
		}
		for _, s := range r.Searches {
			if len(s.VertexIDs) != Places || s.Keywords == "" || s.K != TopK || s.Lambda != Lambda {
				t.Fatalf("read %d (%s): not the default query shape: %+v", i, r.Kind, s)
			}
		}
		if r.Kind == KindBatch {
			for _, s := range r.Searches {
				if s.VertexIDs[0] != r.Searches[0].VertexIDs[0] {
					t.Fatalf("read %d: batch queries do not share the anchor vertex", i)
				}
			}
		}
	}
	for _, k := range VariantKinds {
		if perKind[k] != variantPopulation/len(VariantKinds) {
			t.Errorf("%d %s requests, want %d", perKind[k], k, variantPopulation/len(VariantKinds))
		}
	}
	if !bytes.Contains(w.Reads[0].Body, []byte(`"window":"`+Window+`"`)) {
		t.Errorf("windowed body lacks the window: %s", w.Reads[0].Body)
	}
}
