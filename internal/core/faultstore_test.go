package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"uots/internal/trajdb"
)

// faultEngine builds an engine over the shared fixture wrapped in a
// FaultStore with the given config.
func faultEngine(t *testing.T, cfg FaultConfig) (*Engine, *FaultStore, fixture) {
	t.Helper()
	f := testFixture(t)
	fs := NewFaultStore(f.db, cfg)
	e, err := NewEngine(fs, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e, fs, f
}

// TestStoreFaultSurfacesAsError verifies every engine entry point turns a
// mid-query store panic into an error wrapping ErrStoreFault, with the
// *trajdb.StoreError cause preserved and no results returned.
func TestStoreFaultSurfacesAsError(t *testing.T) {
	// Keywords faults hit the text pre-scoring of every algorithm; Traj
	// faults hit the access paths (start times, order-aware scorings) that
	// skip Keywords.
	for _, mode := range []struct {
		name string
		cfg  FaultConfig
	}{
		{"keywords", FaultConfig{FailEveryKeywords: 3}},
		{"traj", FaultConfig{FailEveryTraj: 1}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			e, _, f := faultEngine(t, mode.cfg)
			rng := rand.New(rand.NewPCG(81, 0))
			q := f.randomQuery(rng, 2, 4, 0.5, 5)
			for _, v := range ctxVariants() {
				res, _, err := v.run(e, context.Background(), q)
				if err == nil {
					// Not every algorithm touches both access paths (e.g. the
					// plain expansion search never loads full records); only
					// algorithms that hit the faulted path must error.
					continue
				}
				if !errors.Is(err, ErrStoreFault) {
					t.Errorf("%s: err %v does not wrap ErrStoreFault", v.name, err)
				}
				var se *trajdb.StoreError
				if !errors.As(err, &se) {
					t.Errorf("%s: err %v does not carry a *trajdb.StoreError", v.name, err)
				} else if !errors.Is(err, ErrInjected) {
					t.Errorf("%s: underlying cause lost: %v", v.name, err)
				}
				if res != nil {
					t.Errorf("%s: returned %d results alongside a store fault", v.name, len(res))
				}
			}
		})
	}
}

// TestStoreFaultCoversEveryEntryPoint pins down which entry points fault
// under an all-paths failure policy: with both access paths failing on
// their first call, every algorithm must error (none can produce a
// ranking without touching the store).
func TestStoreFaultCoversEveryEntryPoint(t *testing.T) {
	e, _, f := faultEngine(t, FaultConfig{FailEveryTraj: 1, FailEveryKeywords: 1})
	rng := rand.New(rand.NewPCG(82, 0))
	q := f.randomQuery(rng, 2, 4, 0.5, 5)
	for _, v := range ctxVariants() {
		if _, _, err := v.run(e, context.Background(), q); !errors.Is(err, ErrStoreFault) {
			t.Errorf("%s: err = %v, want ErrStoreFault", v.name, err)
		}
	}
	if _, err := e.Evaluate(q, 0); !errors.Is(err, ErrStoreFault) {
		t.Errorf("Evaluate: err = %v, want ErrStoreFault", err)
	}
	if _, err := e.OrderAwareEvaluate(q, 0); !errors.Is(err, ErrStoreFault) {
		t.Errorf("OrderAwareEvaluate: err = %v, want ErrStoreFault", err)
	}
}

// TestFaultStoreDeterminism verifies the N-th-call counters make failures
// reproducible: the same query faults after the same number of calls.
func TestFaultStoreDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(83, 0))
	f := testFixture(t)
	q := f.randomQuery(rng, 2, 4, 0.5, 5)
	var counts []int64
	for i := 0; i < 3; i++ {
		e, fs, _ := faultEngine(t, FaultConfig{FailEveryKeywords: 7})
		if _, _, err := e.ExhaustiveSearchCtx(context.Background(), q); !errors.Is(err, ErrStoreFault) {
			t.Fatalf("run %d: err = %v, want ErrStoreFault", i, err)
		}
		_, kw := fs.Calls()
		counts = append(counts, kw)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("fault point drifted across identical runs: %v", counts)
	}
	if counts[0]%7 != 0 {
		t.Errorf("faulted after %d Keywords calls, want a multiple of 7", counts[0])
	}
}

// TestFaultStoreLatency verifies injected latency actually slows the
// access paths — the mechanism the server tests rely on for deterministic
// deadline expiry.
func TestFaultStoreLatency(t *testing.T) {
	f := testFixture(t)
	fs := NewFaultStore(f.db, FaultConfig{Latency: time.Millisecond})
	start := time.Now()
	for i := 0; i < 20; i++ {
		fs.Keywords(trajdb.TrajID(i % f.db.NumTrajectories()))
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("20 calls with 1ms injected latency took %s, want ≥ 20ms", elapsed)
	}
}

// TestBatchSurvivesStoreFaults verifies a batch with per-query store
// faults reports them per entry without failing the whole batch.
func TestBatchSurvivesStoreFaults(t *testing.T) {
	// The twelve expansion queries text-score ~480 candidates between
	// them (16–97 each), so a period of 150 faults a few, not all of them.
	e, _, f := faultEngine(t, FaultConfig{FailEveryKeywords: 150})
	rng := rand.New(rand.NewPCG(84, 0))
	queries := make([]Query, 12)
	for i := range queries {
		queries[i] = f.randomQuery(rng, 2, 3, 0.5, 5)
	}
	out, stats, err := e.SearchBatch(context.Background(), queries, BatchOptions{Workers: 3})
	if err != nil {
		t.Fatalf("SearchBatch: %v", err)
	}
	var failed int
	for _, o := range out {
		if o.Err != nil {
			if !errors.Is(o.Err, ErrStoreFault) {
				t.Errorf("entry %d: err %v does not wrap ErrStoreFault", o.Index, o.Err)
			}
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no batch entry faulted; FailEveryKeywords=150 should trip during 12 expansion queries")
	}
	if failed == len(out) {
		t.Fatal("every entry faulted; expected some queries to complete")
	}
	if stats.Failed != failed {
		t.Errorf("stats.Failed = %d, want %d", stats.Failed, failed)
	}
}

// TestUnrelatedPanicPropagates verifies recoverStoreFault re-panics
// anything that is not a *trajdb.StoreError — engine bugs must stay loud.
func TestUnrelatedPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-store panic was swallowed by recoverStoreFault")
		}
	}()
	var results []Result
	var err error
	func() {
		defer recoverStoreFault(&results, &err)
		panic("engine bug")
	}()
}
