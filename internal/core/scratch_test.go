package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"uots/internal/obs"
	"uots/internal/trajdb"
)

// dirt describes what a search left in s that reset should have undone,
// or returns "" for a clean scratch.
func dirt(s *scratch) string {
	for id, c := range s.cands {
		if c != nil {
			return fmt.Sprintf("cands[%d] is set", id)
		}
	}
	for id, x := range s.text {
		if x != 0 {
			return fmt.Sprintf("text[%d] = %g", id, x)
		}
	}
	for w, x := range s.seen {
		if x != 0 {
			return fmt.Sprintf("seen bitset %d, word %d is %#x", w/s.seenWords, w%s.seenWords, x)
		}
	}
	switch {
	case len(s.admitted) > 0, len(s.textIDs) > 0, len(s.active) > 0:
		return fmt.Sprintf("ID lists hold %d admitted, %d text, %d active", len(s.admitted), len(s.textIDs), len(s.active))
	case s.textHeap.Len() > 0:
		return "text heap is not empty"
	case s.candNext > 0 || len(s.candFree) > 0 || s.distNext > 0 || len(s.distFree) > 0:
		return "arenas are not rewound"
	}
	return ""
}

// drainClean empties the pool of e's graph and fails on any scratch in
// it that is not clean.
func drainClean(t *testing.T, e *Engine, after string) {
	t.Helper()
	for {
		s, _ := e.g.Scratch().Get().(*scratch)
		if s == nil {
			return
		}
		if d := dirt(s); d != "" {
			t.Errorf("after %s the pool holds a dirty scratch: %s", after, d)
		}
	}
}

// TestDefaultQueryAllocs holds the paper's default query (four places,
// three keywords, λ 0.5, k 10) on a warmed engine to at most 50
// allocations: the search's graph- and store-sized state comes from the
// graph's pool, not from the heap. The race detector drops pooled items
// at random, so the count is only checked without it.
func TestDefaultQueryAllocs(t *testing.T) {
	checkQueryAllocs(t, Request{Query: Query{Lambda: 0.5}}, 50)
}

// TestTextOnlyQueryAllocs holds the same queries at λ 0, ranked by text
// alone with only the returned trips' distances resolved, to at most 25
// allocations: the distances come from the pooled goal search, and the
// scored trips are marked in the pooled text table.
func TestTextOnlyQueryAllocs(t *testing.T) { checkQueryAllocs(t, Request{}, 25) }

// TestOrderAwareQueryAllocs holds the same queries, order-aware at λ 0.5,
// to at most 40 allocations: the expansion runs on the pooled scratch,
// and so do the ordered scorings' kernel table and dynamic program, so
// an ordered scoring allocates nothing.
func TestOrderAwareQueryAllocs(t *testing.T) {
	checkQueryAllocs(t, Request{Query: Query{Lambda: 0.5}, OrderAware: true}, 40)
}

// checkQueryAllocs fails when req, its query drawn as four places, three
// keywords and k 10 at req's λ, allocates more than bound objects on a
// warmed engine.
func checkQueryAllocs(t *testing.T, req Request, bound float64) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(1240, 0))
	ctx := context.Background()
	for qi := range 3 {
		req.Query = f.randomQuery(rng, 4, 3, req.Query.Lambda, 10)
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := req.Run(ctx, e); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("query %d: %.0f allocations per search", qi, allocs)
		if allocs > bound {
			t.Errorf("query %d: %.0f allocations per search, want at most %.0f", qi, allocs, bound)
		}
	}
}

// TestScratchComesBackClean runs every variant (at λ 0.5 and at λ 0), a
// cancelled search and a store-faulting search, and checks that each leaves its graph's pool
// holding only clean scratch: a finished or cancelled query resets what
// it touched before putting its scratch back, and a faulted one never
// puts it back.
func TestScratchComesBackClean(t *testing.T) {
	e, f := testEngineDefault(t)
	rng := rand.New(rand.NewPCG(1241, 0))
	q := f.randomQuery(rng, 3, 3, 0.5, 5)
	textOnly := q
	textOnly.Lambda = 0
	drainClean(t, e, "other tests")
	for _, v := range ctxVariants() {
		for _, q := range []Query{q, textOnly} {
			if _, _, err := v.run(e, context.Background(), q); err != nil {
				t.Fatalf("%s at λ %g: %v", v.name, q.Lambda, err)
			}
			drainClean(t, e, fmt.Sprintf("%s at λ %g", v.name, q.Lambda))
		}
	}

	// Cancelled mid-search, at the first rescan of every variant that
	// runs the expansion (a search that the rescan ends is not).
	var cancelled []string
	for _, v := range ctxVariants() {
		ctx, cancel := context.WithCancel(context.Background())
		_, _, err := v.run(e, obs.ContextWithTracer(ctx, &cancelOnBound{cancel: cancel}), q)
		cancel()
		if errors.Is(err, context.Canceled) {
			cancelled = append(cancelled, v.name)
		} else if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		drainClean(t, e, "a cancelled "+v.name)
	}
	if len(cancelled) < 4 {
		t.Errorf("only %v were cancelled mid-search", cancelled)
	}

	for _, cfg := range []FaultConfig{{FailEveryKeywords: 50}, {FailEveryTraj: 2}} {
		fe, err := NewEngine(NewFaultStore(f.db, cfg), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ctxVariants() {
			v.run(fe, context.Background(), q)
			drainClean(t, e, fmt.Sprintf("a faulting %s (%+v)", v.name, cfg))
		}
	}
}

// cancelOnBound is a tracer that cancels its search at the first
// rescan, so the search observes the cancellation mid-run at a point
// fixed by its own work, not by a timer.
type cancelOnBound struct {
	cancel context.CancelFunc
	fired  bool
}

func (c *cancelOnBound) Emit(ev obs.SpanEvent) {
	if ev.Kind == TraceBound && !c.fired {
		c.fired = true
		c.cancel()
	}
}

// TestConcurrentSearchesShareThePool runs every variant and SearchBatch
// from several goroutines on one engine, then, mid-run, grows the store
// by a group commit past the pooled tables' headroom and runs the same
// mix on an engine over the grown snapshot, so the graph's pool hands
// out scratch sized for either store. Every answer must equal, bit for
// bit, the serial answer of its engine.
func TestConcurrentSearchesShareThePool(t *testing.T) {
	f := testFixture(t)
	d := trajdb.NewDynamicFromStore(f.db)
	small, _ := d.Snapshot()
	e1, err := NewEngine(small, Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(1242, 0))
	var reqs []Request
	for i := range 12 {
		q := f.randomQuery(rng, 1+i%4, 1+i%3, []float64{0, 0.3, 0.5, 0.9}[i%4], 2+i%5)
		theta := 0.35
		window := TimeWindow{From: 6 * 3600, To: 14 * 3600}
		reqs = append(reqs,
			Request{Query: q},
			Request{Query: q, Theta: &theta},
			Request{Query: q, Window: &window},
			Request{Query: q, OrderAware: true},
			Request{Query: q, Diversify: &DiversifyOptions{}})
	}
	batch := make([]Query, 0, len(reqs)/5)
	for i := 0; i < len(reqs); i += 5 {
		batch = append(batch, reqs[i].Query)
	}

	type answer struct {
		res []Result
		err error
	}
	// mix runs every request and one batch of plain queries on e from
	// workers goroutines and returns the answers in request order, the
	// batch's after them.
	mix := func(e *Engine, workers int) []answer {
		out := make([]answer, len(reqs)+len(batch))
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(reqs); i += workers {
					res, _, err := reqs[i].Run(context.Background(), e)
					out[i] = answer{res, err}
				}
				if w == 0 {
					br, _, err := e.SearchBatch(context.Background(), batch, BatchOptions{Workers: 2})
					if err != nil {
						t.Errorf("SearchBatch: %v", err)
						return
					}
					for i, r := range br {
						out[len(reqs)+i] = answer{r.Results, r.Err}
					}
				}
			}()
		}
		wg.Wait()
		return out
	}

	var wg sync.WaitGroup
	var got1, got2 []answer
	var e2 *Engine
	wg.Add(1)
	go func() {
		defer wg.Done()
		got1 = mix(e1, 3)
	}()
	// Grow the store by a quarter, past the tables' eighth of headroom.
	n := small.NumTrajectories() / 4
	if _, err := d.AddGroup(n, func(i int) ([]trajdb.Sample, []string) {
		src := trajdb.TrajID(i * 3 % small.NumTrajectories())
		var kws []string
		for _, id := range small.Keywords(src) {
			name, _ := small.Vocab().Term(id)
			kws = append(kws, name)
		}
		return small.Traj(src).Samples, kws
	}); err != nil {
		t.Fatal(err)
	}
	grown, _ := d.Snapshot()
	if e2, err = NewEngine(grown, Options{}); err != nil {
		t.Fatal(err)
	}
	got2 = mix(e2, 3)
	wg.Wait()

	for _, c := range []struct {
		name string
		e    *Engine
		got  []answer
	}{{"first generation", e1, got1}, {"grown generation", e2, got2}} {
		want := mix(c.e, 1)
		for i := range want {
			label := "batch query"
			if i < len(reqs) {
				label = reqs[i].Variant()
			}
			if want[i].err != nil || c.got[i].err != nil {
				t.Fatalf("%s, answer %d (%s): serial err %v, concurrent err %v", c.name, i, label, want[i].err, c.got[i].err)
			}
			if !reflect.DeepEqual(c.got[i].res, want[i].res) {
				t.Errorf("%s, answer %d (%s): concurrent answer %v differs from the serial one %v", c.name, i, label, c.got[i].res, want[i].res)
			}
		}
	}
	if reflect.DeepEqual(got1, got2) {
		t.Error("the grown store answered every request as the first generation did; the test exercises nothing")
	}
}

// TestOneRunPerLocation runs search, threshold, windowed, diversified
// and order-aware requests as Engine.run does, each on a scratch the
// test holds, and checks that a request's settles are its goal search's
// runs: SettledVertices equals the sum over locations of the run
// lengths, so no (location, vertex) pair is settled twice in one request
// — not by a probe behind the expansion's cursor, and not by an ordered
// scoring. The last query is λ 0.
func TestOneRunPerLocation(t *testing.T) {
	e, f := testEngineDefault(t)
	theta := 0.4
	window := TimeWindow{From: 7 * 3600, To: 11 * 3600}
	for _, seed := range []uint64{10, 11, 12, 13} {
		lambda := 0.5
		if seed == 13 {
			lambda = 0 // the text ranking, its distances from the same runs
		}
		q := f.randomQuery(rand.New(rand.NewPCG(seed, 0)), 4, 3, lambda, 5)
		for _, req := range []Request{
			{Query: q}, {Query: q, Theta: &theta}, {Query: q, Window: &window},
			{Query: q, Diversify: &DiversifyOptions{}}, {Query: q, OrderAware: true},
		} {
			nq, err := req.Query.normalize(e.g)
			if err != nil {
				t.Fatal(err)
			}
			variant := req.Variant()
			req.Query = nq
			if req.Diversify != nil {
				req, _, _ = req.Pool()
			}
			scr := acquireScratch(e.g, e.db.NumTrajectories(), nq.Locations)
			_, stats, err := e.candidates(context.Background(), req, AlgoExpansion, scr)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, variant, err)
			}
			runs := 0
			for i := range nq.Locations {
				runs += scr.goal.Settles(i)
			}
			if stats.SettledVertices != runs || runs == 0 && req.Theta == nil {
				t.Errorf("seed %d %s: %d settles counted, the goal search's runs hold %d", seed, variant, stats.SettledVertices, runs)
			}
			scr.release()
		}
	}
}
