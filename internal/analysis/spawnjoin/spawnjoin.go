// Package spawnjoin makes sure every spawned goroutine has a provable
// join path: no fire-and-forget goroutines in the serving stack.
package spawnjoin

import (
	"go/ast"
	"go/token"
	"go/types"

	"uots/internal/analysis"
)

const name = "spawnjoin"

// scopePkgs hold the request-scoped concurrency: the engine's batch
// workers, the scatter-gather executor, the RPC transport's health
// probers, the serving layer, and the ingest pipeline's group
// committer. A goroutine leaked there outlives its request, pins
// memory and pool slots, and races teardown.
var scopePkgs = map[string]bool{
	"core":   true,
	"shard":  true,
	"rpc":    true,
	"server": true,
	"ingest": true,
}

// Analyzer flags go statements with no provable join path.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: `spawnjoin: every go statement in internal/core, internal/shard,
internal/rpc, internal/server and internal/ingest must have a provable
join path.

A fire-and-forget goroutine outlives the request that spawned it: it
pins its captured memory, keeps running after cancellation, and races
engine teardown (the close-during-query contracts assume every worker is
joined before resources are released). A spawn is considered joined when
the goroutine's body (or, for go f() on a same-package function, f's
body) provably terminates into a collector:

 - it pairs with a sync.WaitGroup (defer wg.Done(), with the matching
   Add at the spawn site);
 - it delivers its result over a channel (a send the spawner receives);
 - it is lifetime-scoped: a select or receive on a quit/stop channel or
   ctx.Done() bounds it to its owner's lifetime, or it ranges over a
   channel its owner closes.

Goroutines joined by machinery the analyzer cannot see (cross-package
helpers, process-lifetime monitors) must document that with
//uots:allow spawnjoin -- <reason>.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !scopePkgs[analysis.PathBase(pass.Pkg.Path())] {
		return nil
	}
	decls := declIndex(pass)
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if joined(pass, gs, decls) {
				return true
			}
			if pass.Allowed(name, gs.Pos()) {
				return true
			}
			pass.Reportf(gs.Pos(),
				"goroutine has no provable join path and may leak past request completion; pair it with a WaitGroup (Add/defer Done), collect its result from a channel, or scope it to a quit channel/context, and document external joins with //uots:allow spawnjoin -- reason")
			return true
		})
	}
	return nil
}

// declIndex maps every function object declared in the pass's files to
// its declaration, so go f() can be proven through f's body.
func declIndex(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	idx := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					idx[fn] = fd
				}
			}
		}
	}
	return idx
}

// joined reports whether the spawned function's body contains a join:
// a WaitGroup Done, a channel send, or a lifetime-scoping channel
// operation.
func joined(pass *analysis.Pass, gs *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl) bool {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return bodyJoins(pass, lit.Body)
	}
	if fn := analysis.Callee(pass.TypesInfo, gs.Call); fn != nil {
		if fd := decls[fn]; fd != nil && fd.Body != nil {
			return bodyJoins(pass, fd.Body)
		}
	}
	return false
}

// bodyJoins scans one goroutine body for join evidence.
func bodyJoins(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true // result-channel convention: the spawner receives
		case *ast.SelectStmt:
			found = true // worker loop selecting on quit/tasks
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true // receive: blocks until the owner signals
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true // terminates when the owner closes the channel
				}
			}
		case *ast.CallExpr:
			if isWaitGroupDone(pass, n) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isWaitGroupDone matches wg.Done() on a sync.WaitGroup receiver.
func isWaitGroupDone(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return analysis.IsNamedType(t, "sync", "WaitGroup")
}
