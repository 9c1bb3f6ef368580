// Package ctxflow enforces the context-threading contract: code that has
// a caller context must pass it down, never mint a fresh one.
package ctxflow

import (
	"go/ast"
	"go/types"

	"uots/internal/analysis"
)

const name = "ctxflow"

// Analyzer flags dropped contexts.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: `ctxflow: report context.Background()/context.TODO() calls and nil
context arguments outside process roots and documented lifetime sites.

Every engine entry point threads context.Context; constructing a fresh
background context severs the caller's deadline and cancellation, so the
serving layer's guarantees (request deadlines, disconnect aborts,
graceful shutdown) silently stop applying to the work underneath. The
legitimate fresh-context sites are process roots (func main / init of
package main, which are exempt) and the few places that have no caller
context by construction: a lifetime context minted when an object is
built and cancelled by its Close, the shutdown drain (whose caller
context is already done), and nil-context normalization. Each carries:

	//uots:allow ctxflow -- <why this call has no caller context>

Passing a nil context where a callee accepts context.Context is flagged
for the same reason.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			exemptRoot := false
			if ok && fd.Recv == nil && pass.Pkg.Name() == "main" &&
				(fd.Name.Name == "main" || fd.Name.Name == "init") {
				// Process roots own the root context.
				exemptRoot = true
			}
			if exemptRoot {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkCall(pass, call)
				return true
			})
		}
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	if fn := analysis.Callee(pass.TypesInfo, call); fn != nil &&
		(analysis.IsPkgFunc(fn, "context", "Background") || analysis.IsPkgFunc(fn, "context", "TODO")) {
		if !pass.Allowed(name, call.Pos()) {
			pass.Reportf(call.Pos(),
				"context.%s() drops the caller's context; thread the ctx in scope, or annotate a lifetime context or shutdown drain with //uots:allow ctxflow -- reason",
				fn.Name())
		}
		return
	}
	// nil passed in a context.Context parameter position.
	sig := callSignature(pass.TypesInfo, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	n := params.Len()
	if sig.Variadic() {
		n-- // a context parameter is never the variadic tail
	}
	for i := 0; i < n && i < len(call.Args); i++ {
		if !isContextType(params.At(i).Type()) {
			continue
		}
		tv, ok := pass.TypesInfo.Types[call.Args[i]]
		if ok && tv.IsNil() && !pass.Allowed(name, call.Args[i].Pos()) {
			pass.Reportf(call.Args[i].Pos(),
				"nil context passed to %s parameter; thread the caller's ctx (//uots:allow ctxflow -- reason to exempt)",
				params.At(i).Type())
		}
	}
}

// callSignature returns the signature of the called function or method,
// including calls through function-typed values. Conversions and
// built-ins return nil.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func isContextType(t types.Type) bool {
	return analysis.IsNamedType(t, "context", "Context")
}
