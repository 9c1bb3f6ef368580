// Package uotsvet is the registry of the project's contract analyzers.
// cmd/uotsvet wires it to the driver; the registry lives here so tests
// can assert the exact analyzer set without building the binary.
package uotsvet

import (
	"uots/internal/analysis"
	"uots/internal/analysis/ctxflow"
	"uots/internal/analysis/storefault"
)

// Analyzers returns the full suite, in stable (alphabetical) order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		storefault.Analyzer,
	}
}
