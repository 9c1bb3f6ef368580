package rpc

import (
	"math/rand/v2"
	"time"
)

// backoffConfig is a capped-exponential retry schedule with proportional
// jitter. The schedule is a pure function of (attempt, rng) — no wall
// clock, no hidden state — so tests drive it with a seeded rng and
// assert exact delays.
type backoffConfig struct {
	// Base is the delay before the first retry (attempt 1). Zero or
	// negative disables waiting entirely.
	Base time.Duration
	// Cap bounds the exponential growth. Zero or negative means the
	// pre-jitter delay is capped at Base (no growth).
	Cap time.Duration
	// JitterFrac spreads each delay uniformly over
	// [d*(1-JitterFrac), d*(1+JitterFrac)], desynchronising replicas
	// that fail together. Values outside [0,1] are clamped.
	JitterFrac float64
}

// defaultBackoff is every group's retry schedule: 10ms doubling to
// 250ms, ±50% jitter.
var defaultBackoff = backoffConfig{Base: 10 * time.Millisecond, Cap: 250 * time.Millisecond, JitterFrac: 0.5}

// Delay returns the pause before retry number attempt (1-based; attempt
// 0 — the initial call — always returns 0). rng supplies the jitter
// draw; nil rng means no jitter. Delay never returns a negative
// duration.
func (b backoffConfig) Delay(attempt int, rng *rand.Rand) time.Duration {
	if attempt <= 0 || b.Base <= 0 {
		return 0
	}
	d := b.Base
	cap := b.Cap
	if cap < b.Base {
		cap = b.Base
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cap || d <= 0 { // d <= 0: overflow guard
			d = cap
			break
		}
	}
	if d > cap {
		d = cap
	}
	frac := b.JitterFrac
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	if frac == 0 || rng == nil {
		return d
	}
	// Uniform over [d*(1-frac), d*(1+frac)].
	lo := float64(d) * (1 - frac)
	span := 2 * frac * float64(d)
	jittered := time.Duration(lo + rng.Float64()*span)
	if jittered < 0 {
		return 0
	}
	return jittered
}
