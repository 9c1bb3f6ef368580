// Package lockscope checks mutex discipline: a held lock must be
// released on every return path, and must not be held across blocking
// operations.
package lockscope

import (
	"go/ast"
	"go/token"
	"go/types"

	"uots/internal/analysis"
)

const name = "lockscope"

// scopePkgs cover every package that guards shared state with a mutex
// on the query path: the batch planner's shared frontier, the shard
// executors, the RPC replica groups, the server's admission semaphore,
// the disk store's buffer, and the ingest WAL and commit queue (whose
// mutexes sit directly on the write path's group committer).
var scopePkgs = map[string]bool{
	"core":      true,
	"shard":     true,
	"rpc":       true,
	"server":    true,
	"diskstore": true,
	"ingest":    true,
}

// Analyzer flags locks that escape their scope or are held across
// blocking operations.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: `lockscope: a held sync.Mutex or sync.RWMutex must be released on
every return path, and must not be held across blocking operations.

A lock that leaks past a return deadlocks the next caller; a lock held
across a channel operation, select, WaitGroup.Wait or time.Sleep couples
unrelated goroutines into a convoy (or a deadlock, if the blocked-on
party needs the same lock). Within each function body the analyzer
tracks Lock/RLock acquisitions and requires that every return statement
either executes under a matching deferred unlock or follows an unlock on
its own path. It also reports Lock released by RUnlock (and vice versa),
and channel sends, receives, selects without a default, WaitGroup.Wait
and time.Sleep reached while any lock is held.

Deliberate lock handoffs - a function that acquires a lock and returns
the release to its caller, like the query-lifetime read lock in
RemoteExecutor.beginQuery - must document the transfer with
//uots:allow lockscope -- <reason>.`,
	Run: run,
}

// heldLock is one acquisition being tracked through a function body.
type heldLock struct {
	recv     string // rendered receiver expression, e.g. "s.mu"
	write    bool   // acquired via Lock (RLock otherwise)
	deferred bool   // a matching deferred unlock is registered
	pos      token.Pos
}

func (h heldLock) acquireMethod() string {
	if h.write {
		return "Lock"
	}
	return "RLock"
}

func (h heldLock) releaseMethod() string {
	if h.write {
		return "Unlock"
	}
	return "RUnlock"
}

type checker struct {
	pass *analysis.Pass
}

func run(pass *analysis.Pass) error {
	if !scopePkgs[analysis.PathBase(pass.Pkg.Path())] {
		return nil
	}
	c := &checker{pass: pass}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			// Every function body - declaration or literal - is an
			// independent lock scope. Nested literals are found by this
			// same traversal, so block() never descends into them.
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					c.checkFunc(n.Body)
				}
			case *ast.FuncLit:
				c.checkFunc(n.Body)
			}
			return true
		})
	}
	return nil
}

// checkFunc runs the lock state machine over one function body and
// reports locks still held when control falls off the end.
func (c *checker) checkFunc(body *ast.BlockStmt) {
	held := c.block(body.List, nil)
	for _, h := range held {
		if h.deferred {
			continue
		}
		if c.pass.Allowed(name, h.pos) {
			continue
		}
		c.pass.Reportf(h.pos,
			"mutex %s may remain held at function exit; add defer %s.%s() after acquiring, or document a lock handoff with //uots:allow lockscope -- reason",
			h.recv, h.recv, h.releaseMethod())
	}
}

// block threads the held-lock state through a statement sequence.
func (c *checker) block(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, st := range stmts {
		held = c.stmt(st, held)
	}
	return held
}

// stmt processes one statement. Branch bodies run on a copy of the
// state: a release inside a conditional branch is branch-local (the
// unlock-then-return early exit), while the fall-through path keeps
// the lock until its own release.
func (c *checker) stmt(st ast.Stmt, held []heldLock) []heldLock {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if recv, method, ok := c.mutexOp(call); ok {
				switch method {
				case "Lock":
					return append(copyHeld(held), heldLock{recv: recv, write: true, pos: call.Pos()})
				case "RLock":
					return append(copyHeld(held), heldLock{recv: recv, write: false, pos: call.Pos()})
				case "Unlock":
					return c.release(held, recv, true, call.Pos(), false)
				case "RUnlock":
					return c.release(held, recv, false, call.Pos(), false)
				}
			}
		}
		c.checkBlocking(st, held)
		return held

	case *ast.DeferStmt:
		if recv, method, ok := c.mutexOp(st.Call); ok {
			switch method {
			case "Unlock":
				return c.release(held, recv, true, st.Call.Pos(), true)
			case "RUnlock":
				return c.release(held, recv, false, st.Call.Pos(), true)
			}
		}
		// defer func() { ...; mu.Unlock() }() registers the unlocks in
		// the literal's body as deferred releases.
		if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			for _, inner := range unlockCalls(c, lit.Body) {
				held = c.release(held, inner.recv, inner.write, inner.pos, true)
			}
		}
		return held

	case *ast.ReturnStmt:
		c.checkBlocking(st, held)
		for _, h := range held {
			if h.deferred {
				continue
			}
			if c.pass.Allowed(name, st.Pos()) {
				continue
			}
			c.pass.Reportf(st.Pos(),
				"mutex %s (acquired with %s) is still held on this return path; release with defer %s.%s() immediately after locking, unlock on every branch, or document a lock handoff with //uots:allow lockscope -- reason",
				h.recv, h.acquireMethod(), h.recv, h.releaseMethod())
		}
		// The return consumed this path: drop the non-deferred locks so
		// the same acquisition is not re-reported at function exit.
		var rest []heldLock
		for _, h := range held {
			if h.deferred {
				rest = append(rest, h)
			}
		}
		return rest

	case *ast.IfStmt:
		if st.Init != nil {
			held = c.stmt(st.Init, held)
		}
		c.checkBlocking(st.Cond, held)
		c.block(st.Body.List, copyHeld(held))
		if st.Else != nil {
			c.stmt(st.Else, copyHeld(held))
		}
		return held

	case *ast.ForStmt:
		if st.Init != nil {
			held = c.stmt(st.Init, held)
		}
		if st.Cond != nil {
			c.checkBlocking(st.Cond, held)
		}
		c.block(st.Body.List, copyHeld(held))
		return held

	case *ast.RangeStmt:
		if len(held) > 0 && c.isChanExpr(st.X) {
			c.reportBlocking(st.Pos(), held, "range over a channel")
		}
		c.block(st.Body.List, copyHeld(held))
		return held

	case *ast.SwitchStmt:
		if st.Init != nil {
			held = c.stmt(st.Init, held)
		}
		if st.Tag != nil {
			c.checkBlocking(st.Tag, held)
		}
		for _, clause := range st.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				c.block(cc.Body, copyHeld(held))
			}
		}
		return held

	case *ast.TypeSwitchStmt:
		for _, clause := range st.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				c.block(cc.Body, copyHeld(held))
			}
		}
		return held

	case *ast.SelectStmt:
		if len(held) > 0 && !selectHasDefault(st) {
			c.reportBlocking(st.Pos(), held, "select without a default case")
		}
		for _, clause := range st.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				c.block(cc.Body, copyHeld(held))
			}
		}
		return held

	case *ast.SendStmt:
		if len(held) > 0 {
			c.reportBlocking(st.Pos(), held, "channel send")
		}
		return held

	case *ast.BlockStmt:
		c.block(st.List, copyHeld(held))
		return held

	case *ast.LabeledStmt:
		return c.stmt(st.Stmt, held)

	default:
		c.checkBlocking(st, held)
		return held
	}
}

// release resolves an unlock (immediate or deferred) against the held
// stack: last matching acquisition wins, a kind mismatch (Lock paired
// with RUnlock or RLock with Unlock) is reported, and an unlock with no
// local acquisition is ignored - that is the release half of a handoff.
func (c *checker) release(held []heldLock, recv string, write bool, pos token.Pos, isDefer bool) []heldLock {
	held = copyHeld(held)
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].recv == recv && held[i].write == write && !held[i].deferred {
			if isDefer {
				held[i].deferred = true
				return held
			}
			return append(held[:i], held[i+1:]...)
		}
	}
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].recv == recv && !held[i].deferred {
			if !c.pass.Allowed(name, pos) {
				rel := "Unlock"
				if !write {
					rel = "RUnlock"
				}
				c.pass.Reportf(pos,
					"mutex %s acquired with %s but released with %s; pair Lock with Unlock and RLock with RUnlock",
					recv, held[i].acquireMethod(), rel)
			}
			if isDefer {
				held[i].deferred = true
				return held
			}
			return append(held[:i], held[i+1:]...)
		}
	}
	return held
}

// checkBlocking scans the expressions of one statement (not nested
// function literals) for operations that block while a lock is held.
func (c *checker) checkBlocking(node ast.Node, held []heldLock) {
	if len(held) == 0 || node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its body is a separate lock scope
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.reportBlocking(n.Pos(), held, "channel receive")
			}
		case *ast.CallExpr:
			if desc, ok := c.blockingCall(n); ok {
				c.reportBlocking(n.Pos(), held, desc)
			}
		}
		return true
	})
}

// reportBlocking emits one diagnostic per held lock for a blocking
// operation, honouring allow directives at the operation site.
func (c *checker) reportBlocking(pos token.Pos, held []heldLock, what string) {
	if c.pass.Allowed(name, pos) {
		return
	}
	for _, h := range held {
		c.pass.Reportf(pos,
			"mutex %s is held across a blocking operation (%s); release the lock first, or document with //uots:allow lockscope -- reason",
			h.recv, what)
	}
}

// blockingCall recognises calls that park the goroutine:
// sync.WaitGroup.Wait and time.Sleep.
func (c *checker) blockingCall(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Wait":
		if tv, ok := c.pass.TypesInfo.Types[sel.X]; ok && tv.Type != nil {
			t := tv.Type
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if analysis.IsNamedType(t, "sync", "WaitGroup") {
				return "WaitGroup.Wait", true
			}
		}
	case "Sleep":
		if fn := analysis.Callee(c.pass.TypesInfo, call); fn != nil {
			if pkg := fn.Pkg(); pkg != nil && analysis.PathBase(pkg.Path()) == "time" {
				return "time.Sleep", true
			}
		}
	}
	return "", false
}

// mutexOp matches recv.Lock/Unlock/RLock/RUnlock() where recv is a
// sync.Mutex or sync.RWMutex (possibly through a pointer).
func (c *checker) mutexOp(call *ast.CallExpr) (recv, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	tv, found := c.pass.TypesInfo.Types[sel.X]
	if !found || tv.Type == nil {
		return "", "", false
	}
	t := tv.Type
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	if !analysis.IsNamedType(t, "sync", "Mutex") && !analysis.IsNamedType(t, "sync", "RWMutex") {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// isChanExpr reports whether e has channel type.
func (c *checker) isChanExpr(e ast.Expr) bool {
	tv, ok := c.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// deferredUnlock is one unlock call found inside a deferred closure.
type deferredUnlock struct {
	recv  string
	write bool
	pos   token.Pos
}

// unlockCalls collects the mutex releases in a deferred closure body.
func unlockCalls(c *checker, body *ast.BlockStmt) []deferredUnlock {
	var out []deferredUnlock
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, method, ok := c.mutexOp(call); ok {
			switch method {
			case "Unlock":
				out = append(out, deferredUnlock{recv: recv, write: true, pos: call.Pos()})
			case "RUnlock":
				out = append(out, deferredUnlock{recv: recv, write: false, pos: call.Pos()})
			}
		}
		return true
	})
	return out
}

func selectHasDefault(st *ast.SelectStmt) bool {
	for _, clause := range st.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func copyHeld(held []heldLock) []heldLock {
	out := make([]heldLock, len(held))
	copy(out, held)
	return out
}
