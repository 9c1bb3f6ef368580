package diskstore

import (
	"context"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"uots/internal/core"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// testWorld builds an in-memory store and its disk twin.
func testWorld(t *testing.T, cacheBytes int) (*trajdb.Store, *Store) {
	t.Helper()
	g := roadnet.BRNLike(0.1, 5)
	vocab := textual.GenerateVocab(5, 25, 1.0, 3)
	mem, err := trajdb.Generate(g, trajdb.GenOptions{
		Count: 500, MeanSamples: 15, Vocab: vocab, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.dsk")
	if err := Create(path, mem); err != nil {
		t.Fatal(err)
	}
	disk, err := Open(path, g, cacheBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return mem, disk
}

func TestDiskMirrorsMemory(t *testing.T) {
	mem, disk := testWorld(t, 0)
	if disk.NumTrajectories() != mem.NumTrajectories() {
		t.Fatalf("counts: %d vs %d", disk.NumTrajectories(), mem.NumTrajectories())
	}
	if disk.Vocab().Size() != mem.Vocab().Size() {
		t.Fatalf("vocab sizes differ")
	}
	for id := 0; id < mem.NumTrajectories(); id++ {
		tid := trajdb.TrajID(id)
		mt, dt := mem.Traj(tid), disk.Traj(tid)
		if mt.Len() != dt.Len() {
			t.Fatalf("traj %d length", id)
		}
		for i := range mt.Samples {
			if mt.Samples[i] != dt.Samples[i] {
				t.Fatalf("traj %d sample %d", id, i)
			}
		}
		if len(mem.Keywords(tid)) != len(disk.Keywords(tid)) {
			t.Fatalf("traj %d keywords", id)
		}
		mu, du := mem.UniqueVertices(tid), disk.UniqueVertices(tid)
		if len(mu) != len(du) {
			t.Fatalf("traj %d unique vertices", id)
		}
		for i := range mu {
			if mu[i] != du[i] {
				t.Fatalf("traj %d unique vertex %d", id, i)
			}
		}
		if mem.BBox(tid) != disk.BBox(tid) {
			t.Fatalf("traj %d bbox", id)
		}
	}
	// Vertex inverted lists must agree everywhere.
	for v := 0; v < mem.Graph().NumVertices(); v++ {
		ml := mem.TrajsAtVertex(roadnet.VertexID(v))
		dl := disk.TrajsAtVertex(roadnet.VertexID(v))
		if len(ml) != len(dl) {
			t.Fatalf("vertex %d list lengths", v)
		}
		for i := range ml {
			if ml[i] != dl[i] {
				t.Fatalf("vertex %d list entry %d", v, i)
			}
		}
	}
	// ContainsVertex spot checks.
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 300; trial++ {
		tid := trajdb.TrajID(rng.IntN(mem.NumTrajectories()))
		v := roadnet.VertexID(rng.IntN(mem.Graph().NumVertices()))
		if mem.ContainsVertex(tid, v) != disk.ContainsVertex(tid, v) {
			t.Fatalf("ContainsVertex(%d, %d) disagrees", tid, v)
		}
	}
}

func TestDiskEngineMatchesMemoryEngine(t *testing.T) {
	mem, disk := testWorld(t, 0)
	memEngine, err := core.NewEngine(mem, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	diskEngine, err := core.NewEngine(disk, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 8; trial++ {
		locs := make([]roadnet.VertexID, 1+rng.IntN(4))
		for i := range locs {
			locs[i] = roadnet.VertexID(rng.IntN(mem.Graph().NumVertices()))
		}
		q := core.Query{
			Locations: locs,
			Keywords:  mem.Keywords(trajdb.TrajID(rng.IntN(mem.NumTrajectories()))),
			Lambda:    float64(rng.IntN(11)) / 10,
			K:         1 + rng.IntN(6),
		}
		want, _, err := memEngine.SearchCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := diskEngine.SearchCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Score != want[i].Score {
				t.Fatalf("trial %d rank %d: %g vs %g", trial, i, got[i].Score, want[i].Score)
			}
		}
	}
}

func TestCacheEvictionAndStats(t *testing.T) {
	// A budget that holds only a handful of records forces evictions.
	_, disk := testWorld(t, 2048)
	for id := 0; id < disk.NumTrajectories(); id++ {
		disk.Traj(trajdb.TrajID(id))
	}
	st := disk.Stats()
	if st.Loads != int64(disk.NumTrajectories()) {
		t.Errorf("loads = %d", st.Loads)
	}
	if st.Misses == 0 || st.Evictions == 0 {
		t.Errorf("tiny cache should evict: %+v", st)
	}
	if st.BytesRead == 0 {
		t.Error("no bytes read recorded")
	}
	// Re-reading the most recent record must hit.
	last := trajdb.TrajID(disk.NumTrajectories() - 1)
	before := disk.Stats().Hits
	disk.Traj(last)
	if disk.Stats().Hits != before+1 {
		t.Error("most-recent record should be a cache hit")
	}
}

func TestCacheHitRateWithGenerousBudget(t *testing.T) {
	_, disk := testWorld(t, 0) // default: everything fits
	for pass := 0; pass < 3; pass++ {
		for id := 0; id < disk.NumTrajectories(); id++ {
			disk.Traj(trajdb.TrajID(id))
		}
	}
	st := disk.Stats()
	if st.Misses != int64(disk.NumTrajectories()) {
		t.Errorf("misses = %d, want one per record", st.Misses)
	}
	if st.Evictions != 0 {
		t.Errorf("evictions = %d with a generous budget", st.Evictions)
	}
}

func TestConcurrentLoads(t *testing.T) {
	mem, disk := testWorld(t, 4096)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed+1))
			for i := 0; i < 500; i++ {
				tid := trajdb.TrajID(rng.IntN(disk.NumTrajectories()))
				dt := disk.Traj(tid)
				if dt.Len() != mem.Traj(tid).Len() {
					t.Errorf("traj %d length under concurrency", tid)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
}

func TestOpenRejectsGarbage(t *testing.T) {
	g := roadnet.BRNLike(0.05, 1)
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.dsk")
	if err := writeFile(bad, []byte("definitely not a store")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad, g, 0); err == nil {
		t.Error("garbage file accepted")
	}
	if _, err := Open(filepath.Join(dir, "missing.dsk"), g, 0); err == nil {
		t.Error("missing file accepted")
	}
	// Truncated: magic only.
	trunc := filepath.Join(dir, "trunc.dsk")
	if err := writeFile(trunc, []byte("UOTSTRJ2")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(trunc, g, 0); err == nil {
		t.Error("truncated file accepted")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
