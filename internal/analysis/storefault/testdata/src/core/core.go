// Package core is a fixture of the engine package: exported Engine
// methods returning error must carry the recover-to-ErrStoreFault defer.
package core

import (
	"errors"

	"trajdb"
)

// Engine mirrors the real search engine type.
type Engine struct{}

var errStoreFault = errors.New("store fault")

func recoverStoreFault(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(*trajdb.StoreError); ok {
			*err = errStoreFault
			return
		}
		//uots:allow storefault -- foreign panic payload, re-raise as-is
		panic(r)
	}
}

// SearchCtx is guarded: the defer recovers store panics.
func (e *Engine) SearchCtx(q string) (err error) {
	defer recoverStoreFault(&err)
	return nil
}

// Search is a thin wrapper; the guard lives in SearchCtx.
func (e *Engine) Search(q string) error {
	return e.SearchCtx(q)
}

// SearchBatch lacks the defer entirely.
func (e *Engine) SearchBatch(qs []string) error { // want `SearchBatch returns an error but has no defer recoverStoreFault`
	for range qs {
	}
	return nil
}

// Stats returns no error, so the contract does not apply.
func (e *Engine) Stats() int { return 0 }

// lookup is unexported: internal helpers may rely on their callers' guard.
func (e *Engine) lookup(q string) error { return errors.New(q) }

//uots:allow storefault -- prototype path, guarded by the HTTP recovery middleware instead
func (e *Engine) Explain(q string) error {
	return errors.New(q)
}

// DeferInLit only defers inside a nested literal, which does not guard
// the method's own frame.
func (e *Engine) DeferInLit(q string) error { // want `DeferInLit returns an error but has no defer recoverStoreFault`
	f := func() (err error) {
		defer recoverStoreFault(&err)
		return nil
	}
	return f()
}
