// Package driver runs a set of analysis.Analyzers over type-checked
// packages: it shells out to `go list -e -deps -export -json` and
// type-checks each package from the export data cmd/go built. Run is
// the whole of it; Main wraps Run for bin/uotsvet, and the tier-1 test
// in internal/analysis/uotsvet calls Run directly.
package driver

import (
	"encoding/json"
	"errors"
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
// Diagnostics print as file:line:col: [analyzer] message and any of
// them exits non-zero; -unused-allows also prints the allow audit and
// fails on a stale directive.
func Main(analyzers []*analysis.Analyzer) {
	progname := filepath.Base(os.Args[0])
	args := os.Args[1:]

	if len(args) == 1 && args[0] == "help" {
		printHelp(progname, analyzers)
		os.Exit(0)
	}
	// The flag is accepted anywhere before or between the package patterns.
	auditAllows := false
	var patterns []string
	for _, arg := range args {
		if arg == "-unused-allows" {
			auditAllows = true
		} else {
			patterns = append(patterns, arg)
		}
	}
	if len(patterns) == 0 {
		fmt.Fprintf(os.Stderr, "usage: %s [-unused-allows] package-pattern...\n", progname)
		os.Exit(1)
	}
	rep, err := Run(patterns, analyzers)
	exit := 0
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit = 1
	}
	for _, f := range rep.Findings {
		fmt.Fprintln(os.Stderr, f)
		exit = 1
	}
	if auditAllows {
		for _, s := range rep.StaleAllows {
			fmt.Fprintf(os.Stderr, "uotsvet: unused allow: %s\n", s)
			exit = 1
		}
		fmt.Fprintf(os.Stderr, "uotsvet: allow audit: %d directive names, %d in use, %d stale\n",
			rep.Allows, rep.AllowsInUse, len(rep.StaleAllows))
	}
	os.Exit(exit)
}

// Report is what one Run found.
type Report struct {
	// Findings are the diagnostics, each rendered as
	// "file:line:col: [analyzer] message".
	Findings []string
	// StaleAllows are the //uots:allow directives that suppressed no
	// diagnostic over the analyzed packages — escape hatches to prune.
	StaleAllows []string
	// Allows and AllowsInUse count the (directive, analyzer name) pairs
	// seen and the ones that suppressed something.
	Allows, AllowsInUse int
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

// Run loads the packages matching patterns (resolved by `go list` from
// the working directory) and runs every analyzer over each. The error
// joins whatever kept a package from being analyzed; the report covers
// the packages that were.
func Run(patterns []string, analyzers []*analysis.Analyzer) (Report, error) {
	var rep Report
	cmd := exec.Command("go", append([]string{"list", "-e", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,ImportMap,Export,DepOnly,Error"}, patterns...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return rep, err
	}
	if err := cmd.Start(); err != nil {
		return rep, err
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
			return rep, fmt.Errorf("uotsvet: go list: %w", err)
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
		return rep, fmt.Errorf("uotsvet: go list: %w", err)
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

	var errs []error
	for _, p := range targets {
		if p.Error != nil {
			errs = append(errs, fmt.Errorf("uotsvet: %s: %s", p.ImportPath, p.Error.Err))
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
			errs = append(errs, err)
			continue
		}
		pkg, info, err := typecheck(fset, p.ImportPath, files, lookup)
		if err != nil {
			errs = append(errs, fmt.Errorf("uotsvet: typechecking %s: %w", p.ImportPath, err))
			continue
		}
		diags, used, err := runAnalyzers(analyzers, fset, files, pkg, info)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, d := range diags {
			rep.Findings = append(rep.Findings,
				fmt.Sprintf("%s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message))
		}
		stale, total, inUse := auditAllows(fset, files, used)
		rep.StaleAllows = append(rep.StaleAllows, stale...)
		rep.Allows += total
		rep.AllowsInUse += inUse
	}
	return rep, errors.Join(errs...)
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
