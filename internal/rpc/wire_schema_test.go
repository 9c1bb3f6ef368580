package rpc

import (
	"bytes"
	"encoding/gob"
	"flag"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"uots/internal/core"
	"uots/internal/roadnet"
	"uots/internal/textual"
)

// updateWireSchema rewrites wire_schema.golden from the compiled wire
// structs: go test ./internal/rpc -run TestWireSchemaGolden -args
// -update-wire-schema (or make wire-schema). Regenerating is the
// deliberate act the wirecompat analyzer exists to force - do it only
// when a wire change is intended, and plan the rolling upgrade.
var updateWireSchema = flag.Bool("update-wire-schema", false,
	"rewrite wire_schema.golden from the compiled wire structs")

// wireRoots enumerates every struct gob-encoded onto the wire. Keep in
// lockstep with wire.go: the wirecompat analyzer independently derives
// the same set from the wire.go declarations, so a struct added there
// but not here shows up as a schema mismatch.
func wireRoots() []reflect.Type {
	return []reflect.Type{
		reflect.TypeOf(SearchRequest{}),
		reflect.TypeOf(SearchResponse{}),
		reflect.TypeOf(BatchOptions{}),
		reflect.TypeOf(BatchRequest{}),
		reflect.TypeOf(BatchEntry{}),
		reflect.TypeOf(BatchResponse{}),
		reflect.TypeOf(HealthResponse{}),
	}
}

// wireSchema renders the canonical wire schema: a version header, then
// one block per named struct reachable from the roots through exported
// fields, blocks sorted by qualified name and fields sorted by name.
// The rendering must stay in lockstep with the go/types-based
// generator in internal/analysis/wirecompat (Schema): both sides use
// package-name qualifiers and "  Name Type" field lines, so the same
// golden satisfies the test and the analyzer. Avoid []byte fields in
// wire structs: reflect renders them []uint8 while go/types renders
// []byte, and the generators would disagree.
func wireSchema(roots []reflect.Type) string {
	blocks := make(map[string][]string)
	seen := make(map[string]bool)
	var visit func(t reflect.Type)
	visit = func(t reflect.Type) {
		if t.PkgPath() != "" { // named type
			qname := t.String()
			if seen[qname] {
				return
			}
			seen[qname] = true
			if t.Kind() == reflect.Struct {
				var lines []string
				for i := 0; i < t.NumField(); i++ {
					f := t.Field(i)
					if !f.IsExported() {
						continue
					}
					lines = append(lines, "  "+f.Name+" "+f.Type.String())
					visit(f.Type)
				}
				sort.Strings(lines)
				blocks[qname] = lines
				return
			}
			// Named non-struct (e.g. a named slice): fall through to the
			// kind walk, its element may reach structs.
		}
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			visit(t.Elem())
		case reflect.Map:
			visit(t.Key())
			visit(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if f := t.Field(i); f.IsExported() {
					visit(f.Type)
				}
			}
		}
	}
	for _, r := range roots {
		visit(r)
	}
	names := make([]string, 0, len(blocks))
	for qname := range blocks {
		names = append(names, qname)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("wire schema v1\n")
	for _, qname := range names {
		b.WriteString("\n")
		b.WriteString(qname)
		b.WriteString("\n")
		for _, line := range blocks[qname] {
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	return b.String()
}

// TestWireSchemaGolden pins the wire schema: it fails when a wire
// struct (or any struct reachable from one) gains, loses, renames or
// retypes an exported field without wire_schema.golden being
// regenerated. That makes every wire change a reviewed diff instead of
// a silent decode break in a mixed-version fleet.
func TestWireSchemaGolden(t *testing.T) {
	const golden = "wire_schema.golden"
	schema := wireSchema(wireRoots())
	if *updateWireSchema {
		if err := os.WriteFile(golden, []byte(schema), 0o644); err != nil {
			t.Fatalf("writing %s: %v", golden, err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s: %v (generate it with make wire-schema)", golden, err)
	}
	got := strings.TrimRight(schema, "\n")
	want := strings.TrimRight(string(data), "\n")
	if got == want {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(want, "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("wire schema line %d: compiled %q, golden %q", i+1, g, w)
		}
	}
	t.Errorf("wire schema does not match %s; if the wire change is deliberate, run make wire-schema and coordinate a rolling upgrade", golden)
}

// TestWireGobRoundTrip: a SearchRequest of every variant, and a response
// carrying the +Inf distance of an unreachable query location, survive
// gob unchanged — modifier pointers included.
func TestWireGobRoundTrip(t *testing.T) {
	q := core.Query{Locations: []roadnet.VertexID{4, 2}, Keywords: textual.TermSet{1, 7}, Lambda: 0.5, K: 3}
	theta := 0.35
	reqs := []core.Request{
		{Query: q},
		{Query: q, Theta: &theta},
		{Query: q, Window: &core.TimeWindow{}}, // 00:00–00:00 is a valid window
		{Query: q, OrderAware: true},
		{Query: q, Diversify: &core.DiversifyOptions{}}, // all defaults
	}
	for _, req := range reqs {
		in := SearchRequest{Request: req, Bound: 0.25, Trace: true, TraceID: "id"}
		var out SearchRequest
		gobRoundTrip(t, &in, &out)
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%s request changed on the wire:\n sent %+v\n got  %+v", req.Variant(), in, out)
		}
	}

	in := SearchResponse{Results: []core.Result{{Traj: 9, Score: 0.5, Spatial: 0.25, Textual: 0.75,
		Dists: []float64{1.5, math.Inf(1)}}}, Bound: 0.125}
	var out SearchResponse
	gobRoundTrip(t, &in, &out)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("response changed on the wire:\n sent %+v\n got  %+v", in, out)
	}
}

func gobRoundTrip(t *testing.T, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode %T: %v", in, err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decode %T: %v", out, err)
	}
}
