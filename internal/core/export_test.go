package core

// WithPolicies sets the two unexported expansion policies on opts — the
// rescan cadence relabelEvery and the probe radius floor
// probeRadiusFactor; zero keeps a default — so that the external oracle
// tests can hold them to the exhaustive scan.
func WithPolicies(opts Options, relabelEvery int, probeRadiusFactor float64) Options {
	opts.relabelEvery, opts.probeRadiusFactor = relabelEvery, probeRadiusFactor
	return opts
}
