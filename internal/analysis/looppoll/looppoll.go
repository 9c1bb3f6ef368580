// Package looppoll makes sure unbounded expansion loops stay cancellable.
package looppoll

import (
	"go/ast"
	"go/token"

	"uots/internal/analysis"
)

const name = "looppoll"

// scopePkgs hold the heap/queue expansion loops: the engine core, the
// road-network search kernels, the sharded scatter-gather layer (whose
// worker drain loops must stay cancellable so one stuck shard cannot
// pin a pool slot forever), and the RPC transport (whose retry and
// probe loops must keep honouring caller cancellation between network
// attempts), and the ingest pipeline (whose queue-drain loops must stay
// scoped to the committer's quit channel).
var scopePkgs = map[string]bool{
	"core":    true,
	"roadnet": true,
	"shard":   true,
	"rpc":     true,
	"ingest":  true,
}

// drainNames are the methods that advance a frontier; a loop built
// around one of them runs until the structure empties, which on a large
// graph is effectively unbounded.
var drainNames = map[string]bool{
	"Pop":  true,
	"Next": true,
}

// pollNames are the call names recognised as cancellation polls
// (canceller.check, ctx.Err, ctx.Done, explicit poll helpers).
var pollNames = map[string]bool{
	"check": true, "Check": true,
	"Err": true, "Done": true,
	"poll": true, "Poll": true,
	"canceled": true, "Canceled": true,
}

// Analyzer flags unbounded drain loops with no cancellation poll.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: `looppoll: unbounded heap/queue drain loops in internal/core,
internal/roadnet, internal/shard, internal/rpc and internal/ingest must
poll for cancellation.

A "for { ... heap.Pop() ... }" (or "for cond { ... }") expansion loop
runs for as long as the frontier lasts — on a metropolitan road network
that is millions of iterations, and if it never polls, a cancelled or
deadline-expired request keeps burning a CPU until the drain finishes.
Every such loop must contain a poll: a canceller check (check/Err/Done/
poll variants), a select statement, or a channel receive. Loops whose
poll lives in a caller-supplied visit callback must document that with
//uots:allow looppoll -- <reason>.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !scopePkgs[analysis.PathBase(pass.Pkg.Path())] {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			checkLoop(pass, loop)
			return true
		})
	}
	return nil
}

func checkLoop(pass *analysis.Pass, loop *ast.ForStmt) {
	// Bounded counting loops (for i := 0; i < n; i++) terminate by
	// construction; only condition-less or condition-only loops drain
	// until empty.
	if loop.Init != nil || loop.Post != nil {
		return
	}
	if !callsDrain(loop.Body) || hasPoll(loop.Body) {
		return
	}
	if pass.Allowed(name, loop.Pos()) {
		return
	}
	pass.Reportf(loop.Pos(),
		"unbounded drain loop never polls for cancellation; add a canceller check inside the loop or document the external poll with //uots:allow looppoll -- reason")
}

// callsDrain reports whether the loop body (outside nested function
// literals) calls a frontier-advancing method such as Pop or Next.
func callsDrain(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && drainNames[sel.Sel.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// hasPoll reports whether the loop body contains any recognised
// cancellation poll, again skipping nested function literals.
func hasPoll(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if pollNames[fun.Name] {
					found = true
				}
			case *ast.SelectorExpr:
				if pollNames[fun.Sel.Name] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
