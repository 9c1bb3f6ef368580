package rpc

import (
	"bytes"
	"encoding/gob"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
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
// deliberate act TestWireSchemaGolden exists to force - do it only
// when a wire change is intended, and plan the rolling upgrade.
var updateWireSchema = flag.Bool("update-wire-schema", false,
	"rewrite wire_schema.golden from the compiled wire structs")

// wireRoots enumerates every struct gob-encoded onto the wire.
// TestWireSchemaGolden fails when a struct declared in wire.go is
// missing here.
func wireRoots() []reflect.Type {
	return []reflect.Type{
		reflect.TypeOf(SearchRequest{}),
		reflect.TypeOf(SearchResponse{}),
		reflect.TypeOf(HealthResponse{}),
	}
}

// wireSchema renders the canonical wire schema: a version header, then
// one block per named struct reachable from the roots through exported
// fields, blocks sorted by qualified name and fields sorted by name,
// with package-name qualifiers and "  Name Type" field lines.
//
// unsafe names every exported field that reaches an interface, func or
// channel. Gob cannot carry those, and it drops such a field silently
// when the value is nil - so a round-trip test does not see it (errors
// cross as the coded Error envelope instead).
func wireSchema(roots []reflect.Type) (schema string, unsafe []string) {
	blocks := make(map[string][]string)
	seen := make(map[string]bool)
	// field is the named-struct field whose type is being walked.
	var visit func(t reflect.Type, field string)
	visit = func(t reflect.Type, field string) {
		switch t.Kind() {
		case reflect.Interface, reflect.Func, reflect.Chan:
			unsafe = append(unsafe, field+" "+t.String())
			return
		}
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
					visit(f.Type, qname+"."+f.Name)
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
			visit(t.Elem(), field)
		case reflect.Map:
			visit(t.Key(), field)
			visit(t.Elem(), field)
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if f := t.Field(i); f.IsExported() {
					visit(f.Type, field)
				}
			}
		}
	}
	for _, r := range roots {
		visit(r, r.String())
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
	return b.String(), unsafe
}

// missingRoots parses Go source (filename, or src when non-nil, as
// go/parser takes them) and names the struct types it declares that
// roots does not list.
func missingRoots(filename string, src any, roots []reflect.Type) ([]string, error) {
	file, err := parser.ParseFile(token.NewFileSet(), filename, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	listed := make(map[string]bool)
	for _, r := range roots {
		listed[r.Name()] = true
	}
	var missing []string
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			if _, ok := ts.Type.(*ast.StructType); ok && !listed[ts.Name.Name] {
				missing = append(missing, ts.Name.Name)
			}
		}
	}
	return missing, nil
}

// TestWireSchemaGolden pins the wire schema: it fails when a wire
// struct (or any struct reachable from one) gains, loses, renames or
// retypes an exported field without wire_schema.golden being
// regenerated, when a field gob cannot carry becomes reachable, and
// when wire.go declares a struct wireRoots does not list. That makes
// every wire change a reviewed diff instead of a silent decode break in
// a mixed-version fleet.
func TestWireSchemaGolden(t *testing.T) {
	// Each structural check, on an input that breaks it.
	t.Run("rejects gob-unsafe kinds", func(t *testing.T) {
		type inner struct {
			Err  error  // what core.BatchResult carries and the wire must not
			skip func() // unexported: gob never sees it
		}
		type bad struct {
			OK      []float64
			Nested  map[string][]*inner
			Hook    func()
			Updates chan int
		}
		_, unsafe := wireSchema([]reflect.Type{reflect.TypeOf(bad{})})
		want := []string{"rpc.inner.Err error", "rpc.bad.Hook func()", "rpc.bad.Updates chan int"}
		if !reflect.DeepEqual(unsafe, want) {
			t.Errorf("unsafe fields = %q, want %q", unsafe, want)
		}
	})
	t.Run("rejects struct missing from wireRoots", func(t *testing.T) {
		const src = `package rpc
const PathNew = "/rpc/v1/new"
type SearchRequest struct{ Bound float64 }
type (
	NewRequest struct{ ID string }
	Codes      []string
)
func helper() {}
`
		missing, err := missingRoots("snippet.go", src, wireRoots())
		if err != nil {
			t.Fatalf("parsing snippet: %v", err)
		}
		if want := []string{"NewRequest"}; !reflect.DeepEqual(missing, want) {
			t.Errorf("missing roots = %q, want %q", missing, want)
		}
	})

	const golden = "wire_schema.golden"
	missing, err := missingRoots("wire.go", nil, wireRoots())
	if err != nil {
		t.Fatalf("parsing wire.go: %v", err)
	}
	for _, name := range missing {
		t.Errorf("wire.go declares struct %s, which wireRoots() does not list", name)
	}
	schema, unsafe := wireSchema(wireRoots())
	for _, field := range unsafe {
		t.Errorf("wire field %s: gob cannot encode it; carry a coded representation instead (see Error)", field)
	}
	if t.Failed() {
		return // a schema of the wrong structs is meaningless
	}
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
