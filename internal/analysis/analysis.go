// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. The repo
// builds with the standard library alone, so the x/tools module is not
// available; this package provides just enough of the same shape for the
// project-specific vet suite (cmd/uotsvet) and its analysistest-style
// test harness.
//
// # Allow directives
//
// All analyzers share one escape hatch: a comment of the form
//
//	//uots:allow <name>[,<name>...] -- <reason>
//
// suppresses the named analyzers' diagnostics. The reason is mandatory —
// a bare //uots:allow ctxflow is ignored and the diagnostic still fires —
// because every exemption in this codebase must document why the contract
// does not apply. A directive covers:
//
//   - the whole declaration, when it appears in a declaration's doc
//     comment;
//   - otherwise, the directive's own source line and the line below it
//     (trailing comments and comment-above-statement style).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one project contract check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //uots:allow directives. Lower-case, no spaces.
	Name string
	// Doc is the analyzer's full documentation: the contract it
	// enforces and how to appease it.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass connects an Analyzer to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags  []Diagnostic
	allows []allowSpan
	built  bool
	used   map[AllowKey]bool
}

// A Diagnostic is one reported contract violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// NewPass assembles a pass over a loaded package for one analyzer.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
}

// Reportf records a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the diagnostics reported so far, in source order.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diags, func(i, j int) bool { return p.diags[i].Pos < p.diags[j].Pos })
	return p.diags
}

// directivePrefix introduces an allow directive, in the //go:build style
// (no space after the slashes).
const directivePrefix = "//uots:allow"

// allowSpan is one parsed allow directive's coverage.
type allowSpan struct {
	names map[string]bool
	// pos is the directive comment's own position: the identity the
	// unused-allows audit matches suppressions against.
	pos token.Pos
	// Doc-attached directives cover [start, end].
	start, end token.Pos
	// Free-standing directives cover their own line and the next.
	file *token.File
	line int
}

// parseAllowDirective parses one comment line. ok is false when the
// comment is not an allow directive or is missing the mandatory reason.
func parseAllowDirective(text string) (names []string, reason string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return nil, "", false
	}
	rest := text[len(directivePrefix):]
	if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
		return nil, "", false // e.g. //uots:allowance — not ours
	}
	rest = strings.TrimSpace(rest)
	nameField, reason, _ := strings.Cut(rest, " ")
	reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(reason), "--"))
	reason = strings.TrimSpace(reason)
	for _, n := range strings.Split(nameField, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 || reason == "" {
		return nil, "", false // reason is mandatory
	}
	return names, reason, true
}

// buildAllows indexes every well-formed allow directive in the pass's
// files.
func (p *Pass) buildAllows() {
	if p.built {
		return
	}
	p.built = true
	for _, file := range p.Files {
		// Directives in a declaration doc comment cover the whole
		// declaration.
		docSpans := make(map[*ast.CommentGroup][2]token.Pos)
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Doc != nil {
					docSpans[d.Doc] = [2]token.Pos{d.Pos(), d.End()}
				}
			case *ast.GenDecl:
				if d.Doc != nil {
					docSpans[d.Doc] = [2]token.Pos{d.Pos(), d.End()}
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						if s.Doc != nil {
							docSpans[s.Doc] = [2]token.Pos{s.Pos(), s.End()}
						}
					case *ast.TypeSpec:
						if s.Doc != nil {
							docSpans[s.Doc] = [2]token.Pos{s.Pos(), s.End()}
						}
					}
				}
			}
		}
		for _, group := range file.Comments {
			span, isDoc := docSpans[group]
			for _, c := range group.List {
				names, _, ok := parseAllowDirective(c.Text)
				if !ok {
					continue
				}
				set := make(map[string]bool, len(names))
				for _, n := range names {
					set[n] = true
				}
				as := allowSpan{names: set, pos: c.Pos()}
				if isDoc {
					as.start, as.end = span[0], span[1]
				} else {
					as.file = p.Fset.File(c.Pos())
					as.line = as.file.Line(c.Pos())
				}
				p.allows = append(p.allows, as)
			}
		}
	}
}

// Allowed reports whether pos is covered by a well-formed
// //uots:allow directive naming the given analyzer. A match is
// recorded as a suppression for the unused-allows audit (the analyzers
// only consult Allowed for sites that would otherwise be flagged, so
// every match is a real suppression).
func (p *Pass) Allowed(name string, pos token.Pos) bool {
	p.buildAllows()
	for i := range p.allows {
		as := &p.allows[i]
		if !as.names[name] {
			continue
		}
		if as.start.IsValid() {
			if as.start <= pos && pos <= as.end {
				p.markUsed(name, as.pos)
				return true
			}
			continue
		}
		f := p.Fset.File(pos)
		if f == as.file {
			if line := f.Line(pos); line == as.line || line == as.line+1 {
				p.markUsed(name, as.pos)
				return true
			}
		}
	}
	return false
}

// An AllowKey identifies one (directive, analyzer) suppression: the
// directive comment's position plus the analyzer name it silenced.
type AllowKey struct {
	Pos  token.Pos
	Name string
}

func (p *Pass) markUsed(name string, pos token.Pos) {
	if p.used == nil {
		p.used = make(map[AllowKey]bool)
	}
	p.used[AllowKey{Pos: pos, Name: name}] = true
}

// UsedAllows returns every (directive, analyzer) pair whose directive
// suppressed at least one diagnostic during this pass.
func (p *Pass) UsedAllows() []AllowKey {
	keys := make([]AllowKey, 0, len(p.used))
	for k := range p.used {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Pos != keys[j].Pos {
			return keys[i].Pos < keys[j].Pos
		}
		return keys[i].Name < keys[j].Name
	})
	return keys
}

// An AllowDirective is one well-formed //uots:allow comment, as
// collected for the unused-allows audit.
type AllowDirective struct {
	Pos    token.Pos
	Names  []string
	Reason string
}

// CollectAllows lists every well-formed allow directive in files, in
// source order. Malformed directives (no names, missing reason) are
// skipped: they never suppress anything, so auditing them is the
// ordinary lint run's job, not the audit's.
func CollectAllows(files []*ast.File) []AllowDirective {
	var out []AllowDirective
	for _, file := range files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				names, reason, ok := parseAllowDirective(c.Text)
				if !ok {
					continue
				}
				out = append(out, AllowDirective{Pos: c.Pos(), Names: names, Reason: reason})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// InTestFile reports whether pos lies in a _test.go file. The contract
// analyzers exempt tests: tests legitimately construct fresh contexts
// and panic.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// PathBase returns the last element of an import path: the package
// directory name the scoped analyzers match on, so that both the real
// module paths (uots/internal/core) and the analysistest fixture paths
// (core) resolve identically.
func PathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// Callee resolves the static callee of a call expression, or nil for
// calls through function values, type conversions, and built-ins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn(...).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// IsPkgFunc reports whether fn is the package-level function
// pkgPath.name (not a method).
func IsPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// IsNamedType reports whether t is the named type pkgBase.name, where
// pkgBase is matched against the last element of the defining package's
// import path (see PathBase).
func IsNamedType(t types.Type, pkgBase, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && PathBase(obj.Pkg().Path()) == pkgBase
}
