// Package storefault enforces the typed store-fault contract between the
// trajectory stores and the engine.
package storefault

import (
	"go/ast"
	"go/types"

	"uots/internal/analysis"
)

const name = "storefault"

// storePkgs are the package directory names holding TrajStore
// implementations and the engine that recovers their faults.
var storePkgs = map[string]bool{
	"core":      true,
	"diskstore": true,
	"trajdb":    true,
}

// Analyzer checks both halves of the store-fault contract.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: `storefault: enforce the typed panic contract of trajectory stores.

TrajStore access paths return no errors; an implementation that hits an
unrecoverable mid-query failure must panic with *trajdb.StoreError and
nothing else, because the engine's entry points recover exactly that
type — any other payload keeps unwinding and kills the process under
traffic. Two rules, inside the store packages (core, diskstore, trajdb):

 1. every panic(x) argument must have static type *trajdb.StoreError;
 2. every exported error-returning Engine method in internal/core must
    either defer recoverStoreFault(...) or be a single-statement wrapper
    delegating to a guarded sibling.

Deliberate exceptions (e.g. re-panicking a foreign recover() payload)
must carry //uots:allow storefault -- <reason>.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	base := analysis.PathBase(pass.Pkg.Path())
	if !storePkgs[base] {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkPanic(pass, call)
			return true
		})
		if base == "core" {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					checkEntryPoint(pass, fd)
				}
			}
		}
	}
	return nil
}

// checkPanic flags panic arguments that are not *trajdb.StoreError.
func checkPanic(pass *analysis.Pass, call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return // shadowed identifier, not the builtin
	}
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if ok && isStoreErrorPtr(tv.Type) {
		return
	}
	if pass.Allowed(name, call.Pos()) {
		return
	}
	pass.Reportf(call.Pos(),
		"store packages must panic with *trajdb.StoreError, not %s: untyped panics escape the engine's recover and kill the process (//uots:allow storefault -- reason to exempt)",
		describeType(tv))
}

func isStoreErrorPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && analysis.IsNamedType(ptr.Elem(), "trajdb", "StoreError")
}

func describeType(tv types.TypeAndValue) string {
	if tv.Type == nil {
		return "unknown"
	}
	return tv.Type.String()
}

// checkEntryPoint enforces the recover-to-ErrStoreFault defer on
// exported, error-returning Engine methods.
func checkEntryPoint(pass *analysis.Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) != 1 {
		return
	}
	if !isEngineRecv(fd.Recv.List[0].Type) || !returnsError(pass, fd) {
		return
	}
	if isThinWrapper(fd) || hasRecoverDefer(fd.Body) {
		return
	}
	if pass.Allowed(name, fd.Name.Pos()) {
		return
	}
	pass.Reportf(fd.Name.Pos(),
		"exported Engine method %s returns an error but has no defer recoverStoreFault(...): a store panic mid-query would crash the process instead of surfacing as ErrStoreFault (//uots:allow storefault -- reason to exempt)",
		fd.Name.Name)
}

func isEngineRecv(t ast.Expr) bool {
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.Name == "Engine"
}

func returnsError(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, field := range fd.Type.Results.List {
		if t, ok := pass.TypesInfo.Types[field.Type]; ok && t.Type != nil && t.Type.String() == "error" {
			return true
		}
	}
	return false
}

// isThinWrapper reports whether the body is a single return delegating
// to a method on the same receiver (entry points like SearchCtx → run
// inherit the callee's guard).
func isThinWrapper(fd *ast.FuncDecl) bool {
	if len(fd.Body.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok {
		return false
	}
	recv := fd.Recv.List[0].Names[0].Name
	for _, res := range ret.Results {
		call, ok := ast.Unparen(res).(*ast.CallExpr)
		if !ok {
			continue
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && id.Name == recv {
				return true
			}
		}
	}
	return false
}

// hasRecoverDefer looks for defer recoverStoreFault(...) anywhere in the
// body outside nested function literals.
func hasRecoverDefer(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			switch fun := ast.Unparen(n.Call.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "recoverStoreFault" {
					found = true
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "recoverStoreFault" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
