// Package driver runs a set of analysis.Analyzers over type-checked
// packages (bin/uotsvet ./...): it shells out to
// `go list -e -deps -export -json` and type-checks each package from the
// export data cmd/go built. Diagnostics print as
// file:line:col: [analyzer] message and any of them exits non-zero.
package driver

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"

	"uots/internal/analysis"
)

// Main is the entry point shared by cmd/uotsvet. It never returns.
func Main(analyzers []*analysis.Analyzer) {
	progname := filepath.Base(os.Args[0])
	args := os.Args[1:]

	if len(args) == 1 && args[0] == "help" {
		printHelp(progname, analyzers)
		os.Exit(0)
	}
	// Flags are accepted anywhere before or between the package patterns.
	var opts options
	var patterns []string
	for _, arg := range args {
		switch arg {
		case "-json":
			opts.jsonOut = true
		case "-unused-allows":
			opts.auditAllows = true
		default:
			patterns = append(patterns, arg)
		}
	}
	if len(patterns) == 0 {
		fmt.Fprintf(os.Stderr, "usage: %s [-json] [-unused-allows] package-pattern...\n", progname)
		os.Exit(1)
	}
	os.Exit(run(patterns, analyzers, opts))
}

// options are the driver's flags.
type options struct {
	// jsonOut additionally prints the findings as a JSON array on
	// stdout (file/line/col/analyzer/message), for CI artifacts.
	jsonOut bool
	// auditAllows reports //uots:allow directives that suppressed no
	// diagnostic over the analyzed packages - stale escape hatches that
	// should be pruned.
	auditAllows bool
}

// finding is the JSON shape of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printHelp(progname string, analyzers []*analysis.Analyzer) {
	fmt.Printf("%s: project contract checks for the uots codebase\n\n", progname)
	for _, a := range analyzers {
		fmt.Printf("%s\n\n", a.Doc)
	}
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

func run(patterns []string, analyzers []*analysis.Analyzer, opts options) int {
	cmd := exec.Command("go", append([]string{"list", "-e", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,ImportMap,Export,DepOnly,Error"}, patterns...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var targets []*listPackage
	index := make(map[string]*listPackage) // import path -> package
	importMap := make(map[string]string)   // merged source path -> canonical
	dec := json.NewDecoder(out)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "uotsvet: go list: %v\n", err)
			return 1
		}
		pp := p
		index[p.ImportPath] = &pp
		for from, to := range p.ImportMap {
			importMap[from] = to
		}
		if !p.DepOnly {
			targets = append(targets, &pp)
		}
	}
	if err := cmd.Wait(); err != nil {
		fmt.Fprintf(os.Stderr, "uotsvet: go list: %v\n", err)
		return 1
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		p, ok := index[path]
		if !ok || p.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p.Export)
	}

	exit := 0
	findings := []finding{} // non-nil: -json prints [] when clean
	var stale []string
	totalAllows, usedAllows := 0, 0
	for _, p := range targets {
		if p.Error != nil {
			fmt.Fprintf(os.Stderr, "uotsvet: %s: %s\n", p.ImportPath, p.Error.Err)
			exit = 1
			continue
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		fset := token.NewFileSet()
		var paths []string
		for _, f := range p.GoFiles {
			paths = append(paths, filepath.Join(p.Dir, f))
		}
		files, err := parseFiles(fset, paths)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 1
			continue
		}
		pkg, info, err := typecheck(fset, p.ImportPath, files, lookup)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uotsvet: typechecking %s: %v\n", p.ImportPath, err)
			exit = 1
			continue
		}
		diags, used, err := runAnalyzers(analyzers, fset, files, pkg, info)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 1
			continue
		}
		printDiags(fset, diags)
		if len(diags) > 0 {
			exit = 1
		}
		if opts.jsonOut {
			for _, d := range diags {
				pos := fset.Position(d.Pos)
				findings = append(findings, finding{
					File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Analyzer: d.Analyzer, Message: d.Message,
				})
			}
		}
		if opts.auditAllows {
			s, total, inUse := auditAllows(fset, files, used)
			stale = append(stale, s...)
			totalAllows += total
			usedAllows += inUse
		}
	}
	if opts.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 1
		}
	}
	if opts.auditAllows {
		for _, s := range stale {
			fmt.Fprintf(os.Stderr, "uotsvet: unused allow: %s\n", s)
		}
		fmt.Fprintf(os.Stderr, "uotsvet: allow audit: %d directive names, %d in use, %d stale\n",
			totalAllows, usedAllows, len(stale))
		if len(stale) > 0 {
			exit = 1
		}
	}
	return exit
}

// auditAllows compares the package's allow directives against the
// suppressions the analyzers actually performed. Each stale entry is
// one (directive, analyzer name) pair that silenced nothing - either
// the code it excused was fixed, or the directive never matched.
func auditAllows(fset *token.FileSet, files []*ast.File, used map[analysis.AllowKey]bool) (stale []string, total, inUse int) {
	for _, d := range analysis.CollectAllows(files) {
		for _, name := range d.Names {
			total++
			if used[analysis.AllowKey{Pos: d.Pos, Name: name}] {
				inUse++
				continue
			}
			stale = append(stale,
				fmt.Sprintf("%s: //uots:allow %s suppresses nothing; prune it (reason was: %s)",
					fset.Position(d.Pos), name, d.Reason))
		}
	}
	return stale, total, inUse
}

func parseFiles(fset *token.FileSet, paths []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// unsafeAwareImporter resolves "unsafe" itself and delegates the rest to
// the export-data importer.
type unsafeAwareImporter struct{ under types.Importer }

func (i unsafeAwareImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return i.under.Import(path)
}

func typecheck(fset *token.FileSet, importPath string, files []*ast.File, lookup func(string) (io.ReadCloser, error)) (*types.Package, *types.Info, error) {
	goarch := os.Getenv("GOARCH")
	if goarch == "" {
		goarch = runtime.GOARCH
	}
	conf := types.Config{
		Importer: unsafeAwareImporter{importer.ForCompiler(fset, "gc", lookup)},
		Sizes:    types.SizesFor("gc", goarch),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

func runAnalyzers(analyzers []*analysis.Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]analysis.Diagnostic, map[analysis.AllowKey]bool, error) {
	var diags []analysis.Diagnostic
	used := make(map[analysis.AllowKey]bool)
	for _, a := range analyzers {
		pass := analysis.NewPass(a, fset, files, pkg, info)
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("uotsvet: analyzer %s on %s: %w", a.Name, pkg.Path(), err)
		}
		diags = append(diags, pass.Diagnostics()...)
		for _, k := range pass.UsedAllows() {
			used[k] = true
		}
	}
	return diags, used, nil
}

func printDiags(fset *token.FileSet, diags []analysis.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
