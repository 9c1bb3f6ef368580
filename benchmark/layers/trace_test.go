package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", StartNs: 0, EndNs: 100},
		// Two children that overlap on [30,40): covered once.
		{ID: 1, Parent: 0, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, Name: "b", StartNs: 30, EndNs: 60},
		// A child reaching past its parent is clipped to it.
		{ID: 3, Parent: 0, Name: "c", StartNs: 90, EndNs: 120},
		// A child wholly inside another child's interval adds nothing.
		{ID: 4, Parent: 0, Name: "d", StartNs: 15, EndNs: 20},
		// Grandchild: taken from a, not from root.
		{ID: 5, Parent: 1, Name: "a.inner", StartNs: 12, EndNs: 22},
	}
	self := selfTimes(spans)
	want := []int64{
		100 - (50 + 10), // root: [10,60) and [90,100) covered
		30 - 10,         // a minus its grandchild
		30, 30, 5, 10,   // leaves keep their whole duration
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of %s = %d, want %d", spans[id].Name, self[id], w)
		}
	}
}

func TestNestedSelfTimesSumToTheRoot(t *testing.T) {
	rec := newRecorder()
	for i := 0; i < 3; i++ {
		rec.trace = i
		rec.begin("server.handler")
		call := rec.begin("rpc.call")
		start := rec.now()
		rec.add("rpc.shard_handler", call, start, rec.now())
		rec.end()
		rec.end()
	}
	self := selfTimes(rec.spans)
	var selfSum, rootSum int64
	for _, s := range rec.spans {
		selfSum += self[s.ID]
		if s.Parent < 0 {
			rootSum += s.dur()
		}
	}
	if selfSum != rootSum {
		t.Errorf("self times sum to %d, root spans to %d", selfSum, rootSum)
	}
	if got := rec.spans[2]; got.Parent != 1 || got.Trace != 0 || got.Name != "rpc.shard_handler" {
		t.Errorf("added child = %+v", got)
	}
	if got := rec.spans[4]; got.Parent != 3 || got.Trace != 1 {
		t.Errorf("second request's call span = %+v, want parent 3 trace 1", got)
	}
}

// TestSpecMatchesProgram keeps BENCHMARK.json's per_layer list and the
// metrics this program prints in step.
func TestSpecMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(sp.PerLayer), len(perLayer))
	}
	for i, pl := range perLayer {
		if sp.PerLayer[i].Name != pl.name || sp.PerLayer[i].Unit != pl.unit {
			t.Errorf("per_layer[%d] is %s (%s), the program prints %s (%s)", i, sp.PerLayer[i].Name, sp.PerLayer[i].Unit, pl.name, pl.unit)
		}
	}
	for _, w := range sp.Workloads {
		if _, ok := replayPerSec[w.Name]; !ok {
			t.Errorf("workload %s has no replay size", w.Name)
		}
	}
}
