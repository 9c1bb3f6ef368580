package rpc

import (
	"math/rand/v2"
	"testing"
	"time"
)

// TestBackoffSchedule pins the jitterless schedule exactly: capped
// doubling from Base, zero before the first retry.
func TestBackoffSchedule(t *testing.T) {
	b := backoffConfig{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond}
	want := []time.Duration{
		0,                     // attempt 0: the initial call never waits
		10 * time.Millisecond, // attempt 1
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
		80 * time.Millisecond,
	}
	for attempt, w := range want {
		if got := b.Delay(attempt, nil); got != w {
			t.Errorf("Delay(%d) = %v, want %v", attempt, got, w)
		}
	}
}

func TestBackoffEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		b       backoffConfig
		attempt int
		want    time.Duration
	}{
		{"zero base disables", backoffConfig{Base: 0, Cap: time.Second}, 3, 0},
		{"negative base disables", backoffConfig{Base: -time.Second}, 1, 0},
		{"negative attempt", backoffConfig{Base: time.Millisecond}, -1, 0},
		{"cap below base clamps to base", backoffConfig{Base: 50 * time.Millisecond, Cap: time.Millisecond}, 4, 50 * time.Millisecond},
		{"zero cap means no growth", backoffConfig{Base: 7 * time.Millisecond}, 5, 7 * time.Millisecond},
		{"huge attempt does not overflow", backoffConfig{Base: time.Hour, Cap: 2 * time.Hour}, 400, 2 * time.Hour},
	}
	for _, c := range cases {
		if got := c.b.Delay(c.attempt, nil); got != c.want {
			t.Errorf("%s: Delay(%d) = %v, want %v", c.name, c.attempt, got, c.want)
		}
	}
}

// TestBackoffJitterBounds draws many jittered delays and asserts every
// one lands in [d·(1−frac), d·(1+frac)].
func TestBackoffJitterBounds(t *testing.T) {
	b := backoffConfig{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, JitterFrac: 0.5}
	rng := rand.New(rand.NewPCG(7, 7))
	for attempt := 1; attempt <= 6; attempt++ {
		pre := backoffConfig{Base: b.Base, Cap: b.Cap}.Delay(attempt, nil)
		lo := time.Duration(float64(pre) * 0.5)
		hi := time.Duration(float64(pre) * 1.5)
		for i := 0; i < 200; i++ {
			got := b.Delay(attempt, rng)
			if got < lo || got > hi {
				t.Fatalf("attempt %d draw %d: Delay = %v outside [%v, %v]", attempt, i, got, lo, hi)
			}
		}
	}
}

// TestBackoffJitterDeterministic: the same seed yields the same
// schedule — the whole retry cadence is reproducible from the group's jitter seed.
func TestBackoffJitterDeterministic(t *testing.T) {
	b := backoffConfig{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, JitterFrac: 0.3}
	a := rand.New(rand.NewPCG(42, 42))
	c := rand.New(rand.NewPCG(42, 42))
	for attempt := 1; attempt <= 8; attempt++ {
		da, dc := b.Delay(attempt, a), b.Delay(attempt, c)
		if da != dc {
			t.Fatalf("attempt %d: same seed produced %v and %v", attempt, da, dc)
		}
	}
}

// TestBackoffJitterFracClamped: out-of-range fractions clamp instead of
// producing negative or runaway delays.
func TestBackoffJitterFracClamped(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	over := backoffConfig{Base: 10 * time.Millisecond, JitterFrac: 5}
	for i := 0; i < 100; i++ {
		got := over.Delay(1, rng)
		if got < 0 || got > 20*time.Millisecond {
			t.Fatalf("JitterFrac>1 clamp: Delay = %v outside [0, 20ms]", got)
		}
	}
	neg := backoffConfig{Base: 10 * time.Millisecond, JitterFrac: -1}
	if got := neg.Delay(1, rng); got != 10*time.Millisecond {
		t.Fatalf("JitterFrac<0 clamp: Delay = %v, want 10ms", got)
	}
}
