package uots_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"uots/internal/core"
	"uots/internal/ingest"
	"uots/internal/rpc"
	"uots/internal/server"
	"uots/internal/shard"
)

// updateOptions rewrites testdata/options.golden from the tree: go test .
// -run TestOptionsGolden -args -update-options (or make options).
var updateOptions = flag.Bool("update-options", false,
	"rewrite testdata/options.golden from the flags and config structs in the tree")

// configStructs are the structs a caller configures the layers below the
// facade with; every exported field is an independently settable value.
func configStructs() []reflect.Type {
	return []reflect.Type{
		reflect.TypeOf(core.Options{}),
		reflect.TypeOf(core.BatchOptions{}),
		reflect.TypeOf(core.DiversifyOptions{}),
		reflect.TypeOf(server.Config{}),
		reflect.TypeOf(shard.Config{}),
		reflect.TypeOf(shard.RemoteConfig{}),
		reflect.TypeOf(rpc.GroupConfig{}),
		reflect.TypeOf(ingest.Config{}),
		reflect.TypeOf(ingest.WALOptions{}),
	}
}

// TestOptionsGolden is the census of settable values: every flag.*
// definition in cmd/*/main.go and every exported field of the config
// structs, one line each in testdata/options.golden. It is the file's one
// generator and checker, so a change that adds a flag or a config field
// shows exactly one golden line in review (and one that removes a knob
// shows the deletion). See CONTRIBUTING.md, "Adding a flag or config
// field".
func TestOptionsGolden(t *testing.T) {
	const golden = "testdata/options.golden"
	var b strings.Builder
	b.WriteString("# Every independently settable value below the facade; regenerate with `make options`.\n")

	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go found (err %v)", err)
	}
	sort.Strings(mains)
	for _, path := range mains {
		flags, err := flagDefinitions(path)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		if len(flags) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n%s (%d flags)\n", filepath.Dir(path), len(flags))
		for _, f := range flags {
			fmt.Fprintf(&b, "  %s\n", f)
		}
	}
	for _, typ := range configStructs() {
		var fields []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fields = append(fields, fmt.Sprintf("%s %s", f.Name, f.Type))
			}
		}
		sort.Strings(fields)
		fmt.Fprintf(&b, "\n%s (%d fields)\n", typ, len(fields))
		for _, f := range fields {
			fmt.Fprintf(&b, "  %s\n", f)
		}
	}

	if *updateOptions {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatalf("writing %s: %v", golden, err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s: %v (generate it with make options)", golden, err)
	}
	got, want := strings.Split(b.String(), "\n"), strings.Split(string(data), "\n")
	wantSet := make(map[string]bool, len(want))
	for _, l := range want {
		wantSet[l] = true
	}
	gotSet := make(map[string]bool, len(got))
	for _, l := range got {
		gotSet[l] = true
		if !wantSet[l] {
			t.Errorf("in the tree, not in %s: %q", golden, l)
		}
	}
	for _, l := range want {
		if !gotSet[l] {
			t.Errorf("in %s, not in the tree: %q", golden, l)
		}
	}
	if t.Failed() || b.String() != string(data) {
		t.Errorf("%s is stale: if the new or removed knob is deliberate, run make options and commit the diff", golden)
	}
}

// flagDefinitions lists, sorted, the flags the file defines on package
// flag or on a flag.NewFlagSet value, as "-name type default".
func flagDefinitions(path string) ([]string, error) {
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return nil, err
	}

	// Receivers that define flags: the package, and FlagSet variables.
	sets := map[string]bool{"flag": true}
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok && types.ExprString(call.Fun) == "flag.NewFlagSet" {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				sets[id.Name] = true
			}
		}
		return true
	})

	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv, ok := sel.X.(*ast.Ident)
		if !ok || !sets[recv.Name] {
			return true
		}
		// flag.T("name", default, usage), flag.TVar(&v, "name", default,
		// usage); Var, Func and BoolFunc take a name and no default.
		kind, isVar := strings.CutSuffix(sel.Sel.Name, "Var")
		args := call.Args
		if isVar {
			args = args[1:]
		}
		switch kind {
		case "Bool", "Duration", "Float64", "Int", "Int64", "String", "Uint", "Uint64", "Text":
		case "", "Func", "BoolFunc":
			kind, args = sel.Sel.Name, args[:1]
		default:
			return true // Parse, Arg, NewFlagSet, …
		}
		name, ok := args[0].(*ast.BasicLit)
		if !ok || name.Kind != token.STRING {
			return true
		}
		line := fmt.Sprintf("-%s %s", strings.Trim(name.Value, `"`), strings.ToLower(kind))
		if len(args) == 3 {
			line += " " + types.ExprString(args[1])
		}
		out = append(out, line)
		return true
	})
	sort.Strings(out)
	return out, nil
}
