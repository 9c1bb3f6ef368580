// Package a exercises the ctxflow analyzer: flagged drops, allowed
// lifetime contexts, and clean threading.
package a

import "context"

// SearchCtx stands in for a context-threaded engine entry point.
func SearchCtx(ctx context.Context, q int) error { return nil }

// Drop mints a fresh context although the caller supplied one.
func Drop(ctx context.Context, q int) error {
	return SearchCtx(context.Background(), q) // want `context\.Background\(\) drops the caller's context`
}

// DropTODO does the same with TODO.
func DropTODO(ctx context.Context, q int) error {
	return SearchCtx(context.TODO(), q) // want `context\.TODO\(\) drops the caller's context`
}

// NilCtx passes an explicit nil context.
func NilCtx(q int) error {
	return SearchCtx(nil, q) // want `nil context passed`
}

// Threads passes the caller's context and is clean.
func Threads(ctx context.Context, q int) error {
	return SearchCtx(ctx, q)
}

// Lifetime mints the context an object lives under, at construction.
//
//uots:allow ctxflow -- lifetime context: minted at construction, cancelled by the object's Close
func Lifetime() context.Context {
	return context.Background()
}

// InlineAllow demonstrates a statement-level exemption.
func InlineAllow(q int) error {
	//uots:allow ctxflow -- shutdown drain: the caller's ctx is already done
	return SearchCtx(context.Background(), q)
}

// BareDirective shows that an allow without a reason does not silence
// the analyzer.
func BareDirective(q int) error {
	//uots:allow ctxflow
	return SearchCtx(context.Background(), q) // want `drops the caller's context`
}

// WrongName shows that a directive for another analyzer does not
// silence ctxflow.
func WrongName(q int) error {
	//uots:allow storefault -- reason that names the wrong analyzer
	return SearchCtx(context.Background(), q) // want `drops the caller's context`
}
