package core

// WithPolicies sets the three unexported expansion policies on opts — the
// rescan cadence relabelEvery, its amortization rescanDivisor (negative
// turns it off) and the probe radius floor probeRadiusFactor; zero keeps
// a default — so that the external oracle tests can hold them to the
// exhaustive scan.
func WithPolicies(opts Options, relabelEvery, rescanDivisor int, probeRadiusFactor float64) Options {
	opts.relabelEvery, opts.rescanDivisor, opts.probeRadiusFactor = relabelEvery, rescanDivisor, probeRadiusFactor
	return opts
}
