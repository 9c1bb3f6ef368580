// Package uotsvet is the registry of the project's contract analyzers.
// cmd/uotsvet wires it to the driver; the registry lives here so tests
// can assert the exact analyzer set without building the binary.
package uotsvet

import (
	"uots/internal/analysis"
	"uots/internal/analysis/ctxflow"
	"uots/internal/analysis/errcode"
	"uots/internal/analysis/lockscope"
	"uots/internal/analysis/looppoll"
	"uots/internal/analysis/nodrift"
	"uots/internal/analysis/spawnjoin"
	"uots/internal/analysis/storefault"
)

// Analyzers returns the full suite, in stable (alphabetical) order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		errcode.Analyzer,
		lockscope.Analyzer,
		looppoll.Analyzer,
		nodrift.Analyzer,
		spawnjoin.Analyzer,
		storefault.Analyzer,
	}
}
