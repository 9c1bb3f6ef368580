// Package rpc takes the sharded scatter-gather over the network: it
// promotes the per-shard core.Engines of internal/shard to remote shard
// servers behind a dependency-free transport (gob request/response
// bodies over net/http), and gives the client side the robustness
// machinery a networked scatter needs — per-attempt deadlines, capped
// exponential backoff with seeded jitter, bounded retries on the
// (idempotent) search reads, and replica groups per partition with
// health-checked failover.
//
// The wire contract preserves the repo's determinism bar: gob encodes
// float64 scores and distances bit-exactly (including the +Inf used for
// unreachable query locations, which JSON cannot carry), responses carry
// trajectory IDs already remapped to the global corpus, and the
// core.SharedBound k-th-score exchange flows as piggybacked bound
// values — requests carry the client's best known global bound as a
// pruning hint, responses carry the shard's final local threshold back.
// Because the bound only ever affects *pruning work*, never which
// results survive (see core.SharedBound), distributed answers stay
// byte-identical to the monolithic engine regardless of retry or
// failover timing.
//
// Failures map onto the existing shard policy: every wire error carries
// a machine-readable code (see the Code* constants), the client decodes
// codes back into the canonical sentinel errors (core.ErrStoreFault,
// context.Canceled, context.DeadlineExceeded), and an exhausted replica
// group surfaces as an error wrapping core.ErrStoreFault — so
// shard.PartialFail / shard.PartialDegrade handle a dead partition
// exactly as they handle an injected *trajdb.StoreError today.
package rpc

import (
	"context"
	"errors"
	"fmt"

	"uots/internal/core"
)

// Wire error codes. Every error that crosses the transport carries one;
// the client maps codes back onto the canonical in-process errors so
// errors.Is keeps working across the network.
const (
	// CodeStoreFault marks a shard-side trajectory-store failure
	// (core.ErrStoreFault). Definitive: retrying the same replica would
	// re-read the same broken store.
	CodeStoreFault = "store_fault"
	// CodeCanceled marks a search aborted by context cancellation on the
	// server (normally because the client went away).
	CodeCanceled = "canceled"
	// CodeDeadline marks a search that exceeded its deadline server-side.
	CodeDeadline = "deadline_exceeded"
	// CodeBadQuery marks a query the engine rejected (validation).
	// Definitive: every replica would reject it identically.
	CodeBadQuery = "bad_query"
	// CodeInternal marks an unexpected server-side failure. Treated as
	// transport-class by the client: another replica may be healthy.
	CodeInternal = "internal_error"
)

// Error is the coded error envelope every non-200 response body carries.
// It implements error so servers can return it directly.
type Error struct {
	Code string
	Msg  string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("rpc: %s: %s", e.Code, e.Msg) }

// TransportError wraps a failure of the transport itself — a dial
// failure, a broken connection, an undecodable response, a per-attempt
// timeout — as opposed to a definitive answer from the shard engine.
// Transport errors are retryable on another replica and count against
// the failing replica's error budget; coded engine errors are neither.
type TransportError struct {
	Replica string // base URL of the replica that failed
	Err     error
}

// Error implements error.
func (e *TransportError) Error() string {
	return fmt.Sprintf("rpc: transport to %s: %v", e.Replica, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *TransportError) Unwrap() error { return e.Err }

// IsTransient reports whether err is a transport-class failure worth
// retrying on another replica (and worth counting against the failing
// replica's error budget). Coded internal errors (a server-side panic)
// count too: another replica may well be healthy.
func IsTransient(err error) bool {
	var te *TransportError
	if errors.As(err, &te) {
		return true
	}
	var we *Error
	return errors.As(err, &we) && we.Code == CodeInternal
}

// ErrGroupExhausted is wrapped (together with core.ErrStoreFault) around
// the last transport error when every retry and failover attempt against
// a replica group failed. Wrapping core.ErrStoreFault makes an
// unreachable partition a shard-level store fault for the scatter-gather
// policy layer: PartialFail fails the query, PartialDegrade drops the
// partition from the merge.
var ErrGroupExhausted = errors.New("rpc: replica group exhausted")

// errorToCode maps a shard-engine error onto its wire code.
func errorToCode(err error) string {
	switch {
	case errors.Is(err, core.ErrStoreFault):
		return CodeStoreFault
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	default:
		return CodeBadQuery
	}
}

// codeToError maps a wire code back onto the canonical in-process error,
// preserving errors.Is identities across the network.
func codeToError(code, msg string) error {
	switch code {
	case CodeStoreFault:
		return fmt.Errorf("%w: remote shard: %s", core.ErrStoreFault, msg)
	case CodeCanceled:
		return fmt.Errorf("remote shard: %s: %w", msg, context.Canceled)
	case CodeDeadline:
		return fmt.Errorf("remote shard: %s: %w", msg, context.DeadlineExceeded)
	default:
		return &Error{Code: code, Msg: msg}
	}
}
