package ingest

import (
	"context"
	"errors"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"uots/internal/core"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

func testGraph(t *testing.T) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.GenerateCity(roadnet.CityOptions{
		Rows: 8, Cols: 8, Style: roadnet.StyleDense, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// openService builds an empty dynamic store over the deterministic test
// graph and an ingest service logging into a temp dir.
func openService(t *testing.T, cfg Config) (*Service, *trajdb.DynamicStore) {
	t.Helper()
	g := testGraph(t)
	store := trajdb.NewDynamic(g, textual.NewVocab())
	if cfg.WALPath == "" {
		cfg.WALPath = filepath.Join(t.TempDir(), "ingest.wal")
	}
	svc, err := Open(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc, store
}

// mkTraj fabricates a valid trajectory over g: monotone times, in-range
// vertices, one to three keywords.
func mkTraj(rng *rand.Rand, g *roadnet.Graph, n int) TrajRecord {
	words := []string{"museum", "park", "café", "harbor", "jazz", "garden"}
	samples := make([]trajdb.Sample, n)
	tm := rng.Float64() * 1000
	for i := range samples {
		samples[i] = trajdb.Sample{V: roadnet.VertexID(rng.IntN(g.NumVertices())), T: tm}
		tm += 1 + rng.Float64()*10
	}
	kws := make([]string, 1+rng.IntN(3))
	for i := range kws {
		kws[i] = words[rng.IntN(len(words))]
	}
	return TrajRecord{Samples: samples, Keywords: kws}
}

func TestIngestCommitAndQuery(t *testing.T) {
	svc, store := openService(t, Config{Fsync: FsyncNone})
	rng := rand.New(rand.NewPCG(1, 1))
	batch := []TrajRecord{mkTraj(rng, store.Graph(), 4), mkTraj(rng, store.Graph(), 2)}
	ids, gen, err := svc.Ingest(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("got %d ids, want 2", len(ids))
	}
	if gen == 0 {
		t.Error("generation = 0 after a commit")
	}
	if store.Len() != 2 {
		t.Errorf("store has %d live trajectories, want 2", store.Len())
	}
	eng, egen, err := svc.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if egen < gen {
		t.Errorf("engine generation %d predates commit generation %d", egen, gen)
	}
	if n := eng.Store().NumTrajectories(); n != 2 {
		t.Errorf("engine sees %d trajectories, want 2", n)
	}
	q := core.Query{Locations: []roadnet.VertexID{batch[0].Samples[0].V}, Lambda: 1, K: 2}
	res, _, err := eng.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Error("search over ingested corpus returned nothing")
	}
	st := svc.Stats()
	if st.Accepted != 2 || st.Committed != 2 || st.Batches == 0 {
		t.Errorf("stats = %+v, want accepted=2 committed=2 batches>0", st)
	}
	if st.WALBytes == 0 || st.WALSize == 0 {
		t.Errorf("stats = %+v, want nonzero WAL accounting", st)
	}
}

func TestIngestValidation(t *testing.T) {
	svc, store := openService(t, Config{Fsync: FsyncNone})
	ctx := context.Background()
	if _, _, err := svc.Ingest(ctx, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty batch: %v, want ErrInvalid", err)
	}
	bad := TrajRecord{Samples: []trajdb.Sample{{V: roadnet.VertexID(store.Graph().NumVertices()), T: 0}}}
	if _, _, err := svc.Ingest(ctx, []TrajRecord{bad}); !errors.Is(err, ErrInvalid) {
		t.Errorf("out-of-range vertex: %v, want ErrInvalid", err)
	}
	if st := svc.Stats(); st.RejectedInvalid != 2 || st.Committed != 0 {
		t.Errorf("stats = %+v, want 2 invalid rejections, 0 committed", st)
	}
}

// TestIngestBacklog wedges the committer inside a WAL write and fills
// the bounded queue: the next submission must bounce immediately with
// ErrBacklog, and everything accepted must still commit once the WAL
// unblocks.
func TestIngestBacklog(t *testing.T) {
	release := make(chan struct{})
	blocked := make(chan struct{})
	var once sync.Once
	hooks := Hooks{BeforeWrite: func() error {
		once.Do(func() { close(blocked) })
		<-release
		return nil
	}}
	svc, store := openService(t, Config{Fsync: FsyncNone, QueueDepth: 2, Hooks: hooks})
	rng := rand.New(rand.NewPCG(2, 2))
	trajs := make([][]TrajRecord, 4)
	for i := range trajs {
		trajs[i] = []TrajRecord{mkTraj(rng, store.Graph(), 3)}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		// One submission wedges in commit, two fill the queue.
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = svc.Ingest(ctx, trajs[i])
		}(i)
		if i == 0 {
			<-blocked // the committer holds batch 0; the queue is empty again
		}
	}
	// Wait for the two fillers to land in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().QueueDepth != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: stats = %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := svc.Ingest(ctx, trajs[3]); !errors.Is(err, ErrBacklog) {
		t.Errorf("overflow submission: %v, want ErrBacklog", err)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("submission %d failed: %v", i, err)
		}
	}
	if st := svc.Stats(); st.Committed != 3 || st.RejectedBacklog != 1 {
		t.Errorf("stats = %+v, want committed=3 rejected_backlog=1", st)
	}
}

// TestCloseDrains shuts down with batches still queued: close must
// commit every accepted batch before returning, and later submissions
// must fail with ErrClosed.
func TestCloseDrains(t *testing.T) {
	release := make(chan struct{})
	blocked := make(chan struct{})
	var once sync.Once
	hooks := Hooks{BeforeWrite: func() error {
		once.Do(func() { close(blocked) })
		<-release
		return nil
	}}
	svc, store := openService(t, Config{Fsync: FsyncNone, QueueDepth: 4, Hooks: hooks})
	rng := rand.New(rand.NewPCG(3, 3))
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		batch := []TrajRecord{mkTraj(rng, store.Graph(), 2)}
		wg.Add(1)
		go func(i int, batch []TrajRecord) {
			defer wg.Done()
			_, _, errs[i] = svc.Ingest(ctx, batch)
		}(i, batch)
		if i == 0 {
			<-blocked
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().QueueDepth != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: stats = %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("submission %d failed: %v", i, err)
		}
	}
	if store.Len() != 3 {
		t.Errorf("store has %d trajectories after drain, want 3", store.Len())
	}
	if _, _, err := svc.Ingest(ctx, []TrajRecord{mkTraj(rng, store.Graph(), 2)}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close submission: %v, want ErrClosed", err)
	}
}

// requireSnapshotsEqual compares two store snapshots trajectory by
// trajectory: samples, keyword term sets, and the terms they decode to.
func requireSnapshotsEqual(t *testing.T, got, want *trajdb.Store) {
	t.Helper()
	if got.NumTrajectories() != want.NumTrajectories() {
		t.Fatalf("got %d trajectories, want %d", got.NumTrajectories(), want.NumTrajectories())
	}
	for id := trajdb.TrajID(0); int(id) < want.NumTrajectories(); id++ {
		g, w := got.Traj(id), want.Traj(id)
		if len(g.Samples) != len(w.Samples) {
			t.Fatalf("traj %d: %d samples, want %d", id, len(g.Samples), len(w.Samples))
		}
		for i := range w.Samples {
			if g.Samples[i] != w.Samples[i] {
				t.Errorf("traj %d sample %d = %+v, want %+v", id, i, g.Samples[i], w.Samples[i])
			}
		}
		if len(g.Keywords) != len(w.Keywords) {
			t.Fatalf("traj %d: %d keywords, want %d", id, len(g.Keywords), len(w.Keywords))
		}
		for i := range w.Keywords {
			if g.Keywords[i] != w.Keywords[i] {
				t.Errorf("traj %d keyword %d = %d, want %d", id, i, g.Keywords[i], w.Keywords[i])
			}
			gt, _ := got.Vocab().Term(g.Keywords[i])
			wt, _ := want.Vocab().Term(w.Keywords[i])
			if gt != wt {
				t.Errorf("traj %d keyword %d decodes to %q, want %q", id, i, gt, wt)
			}
		}
	}
}

// TestReplayRestoresStore commits a stream of batches, closes, and
// reopens the WAL over a fresh store: replay must reconstruct the same
// corpus, trajectory for trajectory.
func TestReplayRestoresStore(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	svc, store := openService(t, Config{Fsync: FsyncAlways, WALPath: walPath})
	rng := rand.New(rand.NewPCG(4, 4))
	ctx := context.Background()
	total := 0
	for i := 0; i < 10; i++ {
		batch := make([]TrajRecord, 1+rng.IntN(3))
		for j := range batch {
			batch[j] = mkTraj(rng, store.Graph(), 1+rng.IntN(5))
		}
		if _, _, err := svc.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
		total += len(batch)
	}
	want, _ := store.Snapshot()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := trajdb.NewDynamic(testGraph(t), textual.NewVocab())
	svc2, err := Open(store2, Config{Fsync: FsyncAlways, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	info := svc2.Recovery()
	if info.Created || info.Trajs != total || info.Records == 0 || info.TruncatedBytes != 0 {
		t.Errorf("recovery = %+v, want %d trajs replayed from an intact log", info, total)
	}
	got, _ := store2.Snapshot()
	requireSnapshotsEqual(t, got, want)
	if st := svc2.Stats(); st.ReplayedTrajs != total {
		t.Errorf("stats report %d replayed trajs, want %d", st.ReplayedTrajs, total)
	}
}

// TestEngineCache pins engine identity to the snapshot generation: the
// same engine between commits, a fresh one after.
func TestEngineCache(t *testing.T) {
	svc, store := openService(t, Config{Fsync: FsyncNone})
	if _, _, err := svc.Engine(); !errors.Is(err, core.ErrEmptyStore) {
		t.Fatalf("Engine over empty store: %v, want ErrEmptyStore", err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	ctx := context.Background()
	if _, _, err := svc.Ingest(ctx, []TrajRecord{mkTraj(rng, store.Graph(), 3)}); err != nil {
		t.Fatal(err)
	}
	e1, gen1, err := svc.Engine()
	if err != nil {
		t.Fatal(err)
	}
	e2, gen2, err := svc.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 || gen1 != gen2 {
		t.Error("engine not cached across an unchanged generation")
	}
	if _, _, err := svc.Ingest(ctx, []TrajRecord{mkTraj(rng, store.Graph(), 3)}); err != nil {
		t.Fatal(err)
	}
	e3, gen3, err := svc.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if e3 == e1 || gen3 <= gen1 {
		t.Errorf("engine/generation did not advance after a commit (gen %d → %d)", gen1, gen3)
	}
	if e1.Store().NumTrajectories() != 1 || e3.Store().NumTrajectories() != 2 {
		t.Errorf("pinned stores see %d and %d trajectories, want 1 and 2",
			e1.Store().NumTrajectories(), e3.Store().NumTrajectories())
	}
}

// TestMVCCIngestQuerySoak is the race-mode invariant check: queries pin
// a snapshot generation and observe a frozen, internally consistent
// view while ingest commits concurrently. Run with -race in CI.
func TestMVCCIngestQuerySoak(t *testing.T) {
	svc, store := openService(t, Config{Fsync: FsyncNone})
	g := store.Graph()
	rng := rand.New(rand.NewPCG(6, 6))
	ctx := context.Background()
	// Seed so the first engine build succeeds.
	seed := make([]TrajRecord, 8)
	for i := range seed {
		seed[i] = mkTraj(rng, g, 3)
	}
	if _, _, err := svc.Ingest(ctx, seed); err != nil {
		t.Fatal(err)
	}

	const writerBatches = 120
	var wg sync.WaitGroup
	wg.Add(1)
	writerDone := make(chan struct{})
	// The writer starts once a reader has pinned a generation: its first
	// commit then finds a snapshot to extend, and the next Engine call
	// extends it instead of rebuilding, however the goroutines are
	// scheduled. A reader that leaves early releases the writer too.
	pinned := make(chan struct{})
	var pinOnce sync.Once
	pin := func() { pinOnce.Do(func() { close(pinned) }) }
	go func() {
		defer wg.Done()
		defer close(writerDone)
		<-pinned
		wrng := rand.New(rand.NewPCG(7, 7))
		for i := 0; i < writerBatches; i++ {
			batch := make([]TrajRecord, 1+wrng.IntN(3))
			for j := range batch {
				batch[j] = mkTraj(wrng, g, 1+wrng.IntN(4))
			}
			if _, _, err := svc.Ingest(ctx, batch); err != nil {
				t.Errorf("writer batch %d: %v", i, err)
				return
			}
		}
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer pin()
			qrng := rand.New(rand.NewPCG(uint64(r), 8))
			words := []string{"museum", "park", "jazz"}
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				eng, gen, err := svc.Engine()
				if err != nil {
					t.Errorf("reader %d: Engine: %v", r, err)
					return
				}
				pin()
				n := eng.Store().NumTrajectories()
				q := core.Query{
					Locations: []roadnet.VertexID{roadnet.VertexID(qrng.IntN(g.NumVertices()))},
					Keywords:  store.Vocab().InternAll([]string{words[qrng.IntN(len(words))]}),
					Lambda:    0.6,
					K:         3,
				}
				r1, _, err := eng.SearchCtx(ctx, q)
				if err != nil {
					t.Errorf("reader %d: search at gen %d: %v", r, gen, err)
					return
				}
				r2, _, err := eng.SearchCtx(ctx, q)
				if err != nil {
					t.Errorf("reader %d: repeat search at gen %d: %v", r, gen, err)
					return
				}
				// The pinned engine's view must be frozen: same corpus
				// size, and the identical query scores identically.
				if m := eng.Store().NumTrajectories(); m != n {
					t.Errorf("reader %d: pinned store grew %d → %d mid-request", r, n, m)
					return
				}
				if len(r1) != len(r2) {
					t.Errorf("reader %d: repeat search returned %d vs %d results at gen %d", r, len(r1), len(r2), gen)
					return
				}
				for i := range r1 {
					if r1[i].Traj != r2[i].Traj || r1[i].Score != r2[i].Score {
						t.Errorf("reader %d: result %d differs on a pinned snapshot: %+v vs %+v",
							r, i, r1[i], r2[i])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	st := svc.Stats()
	if st.Committed != st.Accepted {
		t.Errorf("ingest lag after quiesce: accepted %d, committed %d", st.Accepted, st.Committed)
	}
	eng, _, err := svc.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Store().NumTrajectories(); uint64(n) != st.Committed {
		t.Errorf("final engine sees %d trajectories, committed %d", n, st.Committed)
	}
	rebuilds, extensions := store.SnapshotStats()
	if extensions == 0 {
		t.Errorf("soak performed no incremental extensions (rebuilds=%d)", rebuilds)
	}
}
