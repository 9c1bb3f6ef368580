package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"uots/internal/core"
	"uots/internal/difftest"
	"uots/internal/geo"
	"uots/internal/index"
	"uots/internal/roadnet"
	"uots/internal/testworld"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// The differential harness. The expansion search is exact by
// construction, so every backend — the engine under each option, the
// baselines, the batch paths, the sharded executor under every layout,
// the remote executor — must return what the exhaustive scan returns.
// A seed draws one world and one request; the request runs on every
// backend, and every answer goes through one comparator, difftest.Mismatch,
// against the oracle's ranking. A new variant is a case in drawRequest
// and in expect; a new backend is one entry in build.

var (
	worldKinds = [...]string{"brn", "nrn", "islands", "grown", "random"}
	variants   = [...]string{"search", "threshold", "windowed", "orderaware", "diversified"}
	lambdas    = [...]float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1}
	layouts    = [...]string{"hot-shard", "empty-shard", "round-robin"}
	shardNs    = [...]int{1, 2, 4, 7}
)

// Seed s checks world worldKinds[s%5]. Its index in that world, i =
// s/5, picks the variant (i%5), λ (i%7) and the skewed executor layout
// (i%3), so every (variant, λ) pair recurs every 35 indexes of a world.
// Tier-1 checks one such cycle per world, except on the two 400-trip
// BRN-like worlds, whose requests cost the most: 15 indexes there still
// reach every variant, λ and layout.
func tier1Indexes(kind string) uint64 {
	if kind == "brn" || kind == "grown" {
		return 15
	}
	return 35
}

// TestDifferential checks every world on every backend, except that on
// the BRN-like world each backend family is left to the test that owns
// it (see family). The NRN-like world's cycle must hold a request whose
// oracle ranking ties at rank k, so the tie rule stays under test.
func TestDifferential(t *testing.T) {
	h := newHarness(t, func(name string) bool { return family(name) == "" })
	for kind, name := range worldKinds {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ties := 0
			for i := range tier1Indexes(name) {
				if h.check(t, i*uint64(len(worldKinds))+uint64(kind)) {
					ties++
				}
			}
			if name == "nrn" && ties == 0 {
				t.Error("no request's ranking ties at rank k")
			}
		})
	}
}

// FuzzDifferential runs the harness, every backend on every world, from
// any seed; it replaced the UOTS_SOAK switch of the old wide soak. Its
// seed corpus is testdata/fuzz alone: TestDifferential already checks
// the small seeds.
func FuzzDifferential(f *testing.F) {
	h := newHarness(f, nil)
	f.Fuzz(func(t *testing.T, seed uint64) { h.check(t, seed) })
}

// family names the backend family of the BRN-like world that a test of
// its own owns, so a failure names the family — the executor under every
// layout (one trip per shard included), the executor without the bound
// exchange, the executor's batch paths, the remote clusters — or is ""
// for the backends TestDifferential checks there.
func family(name string) string {
	switch {
	case strings.HasPrefix(name, "remote/"):
		return "remote"
	case !strings.HasPrefix(name, "executor/"):
		return ""
	case strings.HasSuffix(name, "/no-bound"):
		return "no-bound"
	case strings.Contains(name, "/batch"):
		return "batch"
	}
	return "executor"
}

func TestShardedMatchesMonolithic(t *testing.T)    { checkFamily(t, "executor") }
func TestShardedDisabledBoundMatches(t *testing.T) { checkFamily(t, "no-bound") }
func TestShardBatchMatchesMonolithic(t *testing.T) { checkFamily(t, "batch") }
func TestRemoteMatchesMonolithic(t *testing.T)     { checkFamily(t, "remote") }

// checkFamily checks the tier-1 requests of the BRN-like world on the
// backends of one family, built alone.
func checkFamily(t *testing.T, name string) {
	t.Parallel()
	r := newWorld(t, "brn", 0)
	r.keep = func(backend string) bool { return family(backend) == name }
	h := harness{"brn": r.build(t)}
	if len(r.backends) == 0 {
		t.Fatal("no backend in the family")
	}
	for i := range tier1Indexes("brn") {
		h.check(t, i*uint64(len(worldKinds)))
	}
}

// TestMaxQueryLocationsBoundary runs the widest query the engine
// accepts, every location distinct, on every backend.
func TestMaxQueryLocationsBoundary(t *testing.T) {
	t.Parallel()
	r := newWorld(t, "nrn", 0).build(t)
	locs := make([]roadnet.VertexID, core.MaxQueryLocations)
	for i := range locs {
		locs[i] = roadnet.VertexID(i)
	}
	r.checkRequest(t, "64 locations on nrn", core.Request{Query: core.Query{Locations: locs, Lambda: 0.7, K: 2}}, "hot-shard")
}

// harness holds the rig of every fixed world, built once.
type harness map[string]*rig

// newHarness builds the fixed worlds' rigs; keep, if not nil, selects
// the BRN-like world's backends.
func newHarness(tb testing.TB, keep func(name string) bool) harness {
	tb.Helper()
	h := harness{}
	for _, kind := range worldKinds[:4] {
		r := newWorld(tb, kind, 0)
		if kind == "brn" {
			r.keep = keep
		}
		h[kind] = r.build(tb)
	}
	return h
}

// check draws seed's world and request and checks every backend. It
// reports whether the oracle's ranking ties at rank k.
func (h harness) check(t *testing.T, seed uint64) (tie bool) {
	t.Helper()
	kind := worldKinds[seed%uint64(len(worldKinds))]
	r := h[kind]
	if r == nil {
		r = newWorld(t, kind, seed).build(t)
	}
	i := seed / uint64(len(worldKinds))
	req := r.drawRequest(rand.New(rand.NewPCG(seed, 0x5eed)), variants[i%5], lambdas[i%7])
	q := req.Query
	label := fmt.Sprintf("seed %d (%s, %s λ=%g k=%d |O|=%d |ψ|=%d)",
		seed, kind, req.Variant(), q.Lambda, q.K, len(q.Locations), len(q.Keywords))
	tie = r.checkRequest(t, label, req, layouts[i%3])
	if seed%4 == 0 {
		r.checkCancelled(t, label, req)
	}
	return tie
}

// rig is one world — a road network, its trajectories and the distance
// scale γ its engines use (0 = the default) — with its oracle and every
// backend over it that keep selects (nil: all). The fixed worlds also
// run remote clusters of each partition count in partitions.
type rig struct {
	g          *roadnet.Graph
	db         *trajdb.Store
	gamma      float64
	partitions []int
	perTrip    bool // also runs the round-robin executor at one trajectory per shard
	keep       func(name string) bool
	oracle     *core.Engine // default options: the exhaustive scans, the diversified reference
	backends   []backend
}

func (r *rig) kept(name string) bool { return r.keep == nil || r.keep(name) }

// newWorld builds the world seed draws; the fixed ones ignore the seed.
func newWorld(tb testing.TB, kind string, seed uint64) *rig {
	tb.Helper()
	switch kind {
	case "brn":
		f := testFixture(tb)
		return &rig{g: f.g, db: f.db, partitions: []int{2, 4}, perTrip: true}
	case "nrn":
		g := roadnet.NRNLike(0.05, 3)
		return &rig{g: g, db: testworld.Ties(generate(tb, g, textual.GenerateVocab(4, 30, 1.0, 5), 300, 15, 9), 60, 19), partitions: []int{2}}
	case "islands":
		return islands(tb)
	case "grown":
		return grown(tb)
	}
	rng := rand.New(rand.NewPCG(seed, 0xc0de))
	style := roadnet.StyleSparse
	if seed%2 == 0 {
		style = roadnet.StyleDense
	}
	g, err := roadnet.GenerateCity(roadnet.CityOptions{Rows: 6 + rng.IntN(10), Cols: 6 + rng.IntN(10), Style: style, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	// Every fourth random world holds one trajectory, every fourth at
	// most seven: fewer than the widest executor has shards.
	count := 1 + rng.IntN(200)
	switch seed / uint64(len(worldKinds)) % 4 {
	case 0:
		count = 1
	case 1:
		count = 2 + rng.IntN(6)
	}
	vocab := textual.GenerateVocab(1+rng.IntN(5), 5+rng.IntN(30), 1.0, seed)
	return &rig{g: g, db: generate(tb, g, vocab, count, 2+rng.IntN(25), seed^3), gamma: 0.2 + 3*rng.Float64()}
}

func generate(tb testing.TB, g *roadnet.Graph, vocab *textual.SyntheticVocab, count, mean int, seed uint64) *trajdb.Store {
	tb.Helper()
	db, err := trajdb.Generate(g, trajdb.GenOptions{Count: count, MeanSamples: mean, Vocab: vocab, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// islands is two four-vertex lines with trajectories on both: expanders
// exhaust their component, distances to the other island are +Inf, and
// unreachable trajectories compete on text alone.
func islands(tb testing.TB) *rig {
	tb.Helper()
	var b roadnet.Builder
	for i := 0; i < 8; i++ {
		b.AddVertex(geo.Point{X: float64(i % 4), Y: float64(i / 4 * 10)})
		if i%4 > 0 {
			if err := b.AddEdge(roadnet.VertexID(i-1), roadnet.VertexID(i), 1); err != nil {
				tb.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	sb := trajdb.NewBuilder(g, textual.NewVocab())
	for _, tr := range []struct {
		vs  []roadnet.VertexID
		kws []string
	}{
		{[]roadnet.VertexID{0, 1}, []string{"food", "market"}},
		{[]roadnet.VertexID{2, 3}, []string{"art"}},
		{[]roadnet.VertexID{4, 5}, []string{"food", "market"}},
		{[]roadnet.VertexID{6}, []string{"river"}},
	} {
		samples := make([]trajdb.Sample, len(tr.vs))
		for j, v := range tr.vs {
			samples[j] = trajdb.Sample{V: v, T: float64(100 * (v + 1))}
		}
		if _, err := sb.AddWithKeywords(samples, tr.kws); err != nil {
			tb.Fatal(err)
		}
	}
	return &rig{g: g, db: sb.Freeze(), partitions: []int{2}}
}

// grown is the BRN-like world after three ingest generations, each a
// DynamicStore.AddGroup of ten copies of existing routes (so their
// distances tie with the originals) carrying a keyword no earlier
// generation had. Each snapshot extends the previous one, so the new
// keywords' postings are the ones extendWith builds.
func grown(tb testing.TB) *rig {
	tb.Helper()
	g, vocab, base := testworld.BRN()
	d := trajdb.NewDynamicFromStore(base)
	rng := rand.New(rand.NewPCG(17, 0))
	for gen := range 3 {
		_, err := d.AddGroup(10, func(int) ([]trajdb.Sample, []string) {
			src := trajdb.TrajID(rng.IntN(base.NumTrajectories()))
			kws := []string{fmt.Sprintf("gen%d", gen)}
			for _, id := range base.Keywords(src) {
				if name, ok := vocab.Vocab.Term(id); ok && rng.IntN(2) == 0 {
					kws = append(kws, name)
				}
			}
			return base.Traj(src).Samples, kws
		})
		if err != nil {
			tb.Fatal(err)
		}
		d.Snapshot()
	}
	snap, _ := d.Snapshot()
	return &rig{g: g, db: snap, partitions: []int{2}}
}

// backend is one way to answer a request: one result list, or one per
// slot of a batch.
type backend struct {
	name   string
	topK   bool   // answers the plain top-k only (the baselines, the batch paths)
	layout string // the skewed executor layout it runs, if any
	run    func(ctx context.Context, req core.Request) ([][]core.Result, error)
}

func single(name string, b core.Backend) backend {
	return backend{name: name, run: func(ctx context.Context, req core.Request) ([][]core.Result, error) {
		res, _, err := req.Run(ctx, b)
		return [][]core.Result{res}, err
	}}
}

// batch runs the request's query twice in one batch, on two workers,
// beside a third query without locations, which must fail alone.
func batch(name string, b interface {
	SearchBatch(context.Context, []core.Query, core.BatchOptions) ([]core.BatchResult, core.BatchStats, error)
}) backend {
	return backend{name: name, topK: true, run: func(ctx context.Context, req core.Request) ([][]core.Result, error) {
		out, st, err := b.SearchBatch(ctx, []core.Query{req.Query, req.Query, {K: 1}}, core.BatchOptions{Workers: 2})
		if err == nil && (st.Queries != 3 || st.Failed != 1) {
			err = fmt.Errorf("batch stats %+v", st)
		}
		var answers [][]core.Result
		for i, o := range out {
			switch {
			case err != nil:
			case o.Index != i:
				err = fmt.Errorf("slot %d carries index %d", i, o.Index)
			case i == 2 && o.Err == nil:
				err = errors.New("a query without locations did not fail")
			case i < 2 && o.Err != nil:
				err = fmt.Errorf("slot %d: %w", i, o.Err)
			}
			if i < 2 {
				answers = append(answers, o.Results)
			}
		}
		return answers, err
	}}
}

// build adds the oracle and every kept backend that does not depend on
// the request. All of it stops at tb's cleanup.
func (r *rig) build(tb testing.TB) *rig {
	tb.Helper()
	engine := func(opts core.Options) *core.Engine {
		opts.DistScale = r.gamma
		e, err := core.NewEngine(r.db, opts)
		if err != nil {
			tb.Fatal(err)
		}
		return e
	}
	r.oracle = engine(core.Options{})
	indexed := engine(core.Options{Index: index.NewTrajBounds(r.db, roadnet.NewLandmarks(r.g, 4, 0))})
	textFirst := func(name string, e *core.Engine) backend {
		return backend{name: name, topK: true, run: func(ctx context.Context, req core.Request) ([][]core.Result, error) {
			res, _, err := e.TextFirstSearchCtx(ctx, req.Query)
			return [][]core.Result{res}, err
		}}
	}
	add := func(b backend) {
		if r.kept(b.name) {
			r.backends = append(r.backends, b)
		}
	}
	for _, b := range []backend{
		single("engine", r.oracle),
		single("engine/round-robin", engine(core.Options{Scheduling: core.ScheduleRoundRobin})),
		single("engine/index", indexed),
		textFirst("textfirst", r.oracle),
		textFirst("textfirst/index", indexed),
		batch("batch", r.oracle),
	} {
		add(b)
	}
	// executor adds cfg's executor under name, and its batch paths if
	// batches, building it only if one of them is kept.
	executor := func(name, layout string, cfg Config, batches bool) {
		if !r.kept(name) && !(batches && r.kept(name+"/batch")) {
			return
		}
		ex := r.executor(tb, cfg)
		b := single(name, ex)
		b.layout = layout
		add(b)
		if batches {
			add(batch(name+"/batch", ex))
		}
	}
	executor("executor/hash/n=4/no-bound", "", Config{Shards: 4, disableSharedBound: true}, false)
	skewed := skewedAssignments(nil)
	for _, n := range shardNs {
		executor(fmt.Sprintf("executor/hash/n=%d", n), "", Config{Shards: n}, true)
		for _, layout := range layouts[1:] { // hot-shard depends on the answer: see checkRequest
			if n > 1 { // one shard holds everything under any layout
				executor(fmt.Sprintf("executor/%s/n=%d", layout, n), layout, Config{Shards: n, assign: skewed[layout]}, false)
			}
		}
	}
	if r.perTrip {
		n := r.db.NumTrajectories()
		executor(fmt.Sprintf("executor/round-robin/n=%d", n), "round-robin", Config{Shards: n, assign: skewed["round-robin"]}, false)
	}
	for _, parts := range r.partitions {
		for replicas := 1; replicas <= 2; replicas++ {
			if name := fmt.Sprintf("remote/%dx%d", parts, replicas); r.kept(name) {
				re := startCluster(tb, r.db, parts, replicas, RemoteConfig{Global: r.oracle}, nil, nil, nil).re
				add(single(name, re))
				add(batch(name+"/batch", re))
			}
		}
	}
	return r
}

func (r *rig) executor(tb testing.TB, cfg Config) *Executor {
	tb.Helper()
	ex, err := NewExecutor(r.db, core.Options{DistScale: r.gamma}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(ex.Close)
	return ex
}

// drawRequest draws one request of the variant at λ: one to six
// locations (possibly repeated, possibly on a trajectory), up to five
// keywords from the corpus (possibly unknown), k up to past |T|.
func (r *rig) drawRequest(rng *rand.Rand, variant string, lambda float64) core.Request {
	n := r.db.NumTrajectories()
	locs := make([]roadnet.VertexID, 1+rng.IntN(6))
	for i := range locs {
		locs[i] = roadnet.VertexID(rng.IntN(r.g.NumVertices()))
	}
	if rng.IntN(3) == 0 {
		samples := r.db.Traj(trajdb.TrajID(rng.IntN(n))).Samples
		locs[rng.IntN(len(locs))] = samples[rng.IntN(len(samples))].V
	}
	if len(locs) > 1 && rng.IntN(4) == 0 {
		locs[len(locs)-1] = locs[0]
	}
	terms := make([]textual.TermID, rng.IntN(6))
	for i := range terms {
		// Half the draws come from the newest trips (a grown world's
		// ingested generations); a trip without keywords gives an
		// unknown term.
		id := rng.IntN(n)
		if rng.IntN(2) == 0 {
			id = n - 1 - rng.IntN(min(n, 30))
		}
		terms[i] = 1 << 20
		if kws := r.db.Keywords(trajdb.TrajID(id)); len(kws) > 0 {
			terms[i] = kws[rng.IntN(len(kws))]
		}
	}
	req := core.Request{Query: core.Query{Locations: locs, Keywords: textual.NewTermSet(terms), Lambda: lambda, K: 1 + rng.IntN(10)}}
	// The whole store, and past it. Order-aware and diversified answers
	// cost O(k·|T|) trajectory scorings, so they go past |T| only in the
	// small worlds, where 1–10 already does.
	if rng.IntN(5) == 0 && variant != "orderaware" && variant != "diversified" {
		req.Query.K = max(n-1+rng.IntN(3), 1)
	}
	switch variant {
	case "threshold":
		theta := 0.05 + 0.9*rng.Float64()
		req.Theta = &theta
	case "windowed": // half of these wrap past midnight
		from := rng.IntN(24)
		req.Window = &core.TimeWindow{From: float64(from * 3600), To: float64((from + 1 + rng.IntN(22)) % 24 * 3600)}
	case "orderaware":
		req.OrderAware = true
	case "diversified":
		req.Diversify = &core.DiversifyOptions{Mu: 0.9 * rng.Float64()}
	}
	return req
}

// checkRequest runs req on every backend but the skewed executors of the
// other layouts, and compares each answer with the oracle's. The
// hot-shard layout puts every answer on shard 0 and hashes the rest
// over the others, so it is built from the oracle's answer. It reports
// whether the oracle's ranking ties at rank k.
func (r *rig) checkRequest(t *testing.T, label string, req core.Request, layout string) (tie bool) {
	t.Helper()
	ranking, k, err := r.expect(t, label, req)
	if err != nil {
		t.Errorf("%s: oracle: %v", label, err)
		return false
	}
	tie = 0 < k && k < len(ranking) && ranking[k-1].Score == ranking[k].Score
	backends := r.backends
	if layout == "hot-shard" {
		hot := make(map[trajdb.TrajID]bool, k)
		for _, res := range ranking[:k] {
			hot[res.Traj] = true
		}
		for _, n := range shardNs[1:] {
			name := fmt.Sprintf("executor/hot-shard/n=%d", n)
			if !r.kept(name) {
				continue
			}
			b := single(name, r.executor(t, Config{Shards: n, assign: skewedAssignments(hot)["hot-shard"]}))
			b.layout = layout
			backends = append(backends, b)
		}
	}
	for _, b := range backends {
		if b.topK && req.Variant() != "search" || b.layout != "" && b.layout != layout {
			continue
		}
		answers, err := b.run(context.Background(), req)
		if err != nil {
			t.Errorf("%s: %s: %v", label, b.name, err)
			continue
		}
		for slot, got := range answers {
			if err := difftest.Mismatch(got, ranking, k); err != nil {
				t.Errorf("%s: %s (answer %d): %v", label, b.name, slot, err)
			}
		}
	}
	return tie
}

// expect is the oracle (difftest.Expect). On the plain top-k it also
// checks the oracle's own top k: each entry equals Evaluate, a place on
// the trip is at distance 0, a place on another island at +Inf, and a
// query without keywords scores no text.
func (r *rig) expect(t *testing.T, label string, req core.Request) (ranking []core.Result, k int, err error) {
	t.Helper()
	ranking, k, err = difftest.Expect(context.Background(), r.oracle, r.db, req)
	if err != nil || req.Variant() != "search" {
		return ranking, k, err
	}
	q := req.Query
	comp, _ := r.g.ConnectedComponents()
	for i := 0; i < k; i++ {
		want := ranking[i]
		res, e := r.oracle.Evaluate(q, want.Traj)
		if e == nil {
			e = difftest.SameResult(res, want)
		}
		for j, v := range q.Locations {
			on, apart := r.db.ContainsVertex(want.Traj, v), comp[v] != comp[r.db.Traj(want.Traj).Samples[0].V]
			if on != (want.Dists[j] == 0) || apart != math.IsInf(want.Dists[j], 1) || len(q.Keywords) == 0 && want.Textual != 0 {
				e = fmt.Errorf("location %d (on the trip: %v, apart: %v): %+v", j, on, apart, want)
			}
		}
		if e != nil {
			t.Errorf("%s: oracle rank %d: %v", label, i, e)
		}
	}
	return ranking, k, nil
}

// checkCancelled runs req on a context cancelled before the call: every
// backend must fail with context.Canceled and return no results.
func (r *rig) checkCancelled(t *testing.T, label string, req core.Request) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range r.backends {
		if b.topK && req.Variant() != "search" {
			continue
		}
		answers, err := b.run(ctx, req)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: %s on a cancelled context: err = %v, want context.Canceled", label, b.name, err)
		}
		for slot, res := range answers {
			if res != nil {
				t.Errorf("%s: %s on a cancelled context: answer %d holds %d results", label, b.name, slot, len(res))
			}
		}
	}
}
