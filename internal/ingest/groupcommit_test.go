package ingest

import (
	"context"
	"math/rand/v2"
	"path/filepath"
	"sync/atomic"
	"testing"

	"uots/internal/textual"
	"uots/internal/trajdb"
)

// TestGroupCommitIsOneGeneration pins the apply side of a group commit:
// the trajectories of one WAL record enter the store as one mutation. A
// reader spinning on Engine() beside the writer must never pin a
// snapshot holding part of a group (every commit here is exactly `group`
// trips, so every snapshot size is a multiple of it), and the store ends
// at one generation per commit — live, and again when the log is
// replayed into a fresh store.
func TestGroupCommitIsOneGeneration(t *testing.T) {
	const commits, group = 200, 64
	wal := filepath.Join(t.TempDir(), "ingest.wal")
	svc, store := openService(t, Config{WALPath: wal, Fsync: FsyncNone})
	g := store.Graph()

	var stop atomic.Bool
	var reads, torn atomic.Int64
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for !stop.Load() {
			eng, _, err := svc.Engine()
			if err != nil {
				continue // the store is empty until the first commit
			}
			reads.Add(1)
			if eng.Store().NumTrajectories()%group != 0 {
				torn.Add(1)
			}
		}
	}()

	rng := rand.New(rand.NewPCG(24, 1))
	for c := 0; c < commits; c++ {
		trips := make([]TrajRecord, group)
		for i := range trips {
			trips[i] = mkTraj(rng, g, 3)
		}
		if _, _, err := svc.Ingest(context.Background(), trips); err != nil {
			t.Fatalf("commit %d: %v", c, err)
		}
	}
	stop.Store(true)
	<-readerDone

	if n := torn.Load(); n != 0 {
		t.Errorf("%d of %d reads pinned a snapshot holding part of a group", n, reads.Load())
	}
	st := svc.Stats()
	if st.Batches != commits || st.Generation != commits {
		t.Errorf("after %d sequential Ingest calls: %d batches, generation %d; want %d of each",
			commits, st.Batches, st.Generation, commits)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	replayed := trajdb.NewDynamic(g, textual.NewVocab())
	again, err := Open(replayed, Config{WALPath: wal, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if rec := again.Recovery(); rec.Records != commits || replayed.Generation() != commits || replayed.Len() != commits*group {
		t.Errorf("replay: %d records → generation %d, %d live; want %d, %d, %d",
			rec.Records, replayed.Generation(), replayed.Len(), commits, commits, commits*group)
	}
}
