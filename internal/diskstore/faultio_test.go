package diskstore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"uots/internal/core"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// TestMidQueryIOFailureSurfacesAsError proves the end-to-end fault
// contract on a real disk store: the record file is truncated underneath
// an open store (a failing device, mid-flight), and a query that needs
// the lost payloads must come back as an error wrapping core.ErrStoreFault
// with the *trajdb.StoreError cause attached — never as a panic and never
// as a silently wrong ranking.
func TestMidQueryIOFailureSurfacesAsError(t *testing.T) {
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
	// A tiny buffer guarantees the query's records are not already cached
	// when the device "fails".
	disk, err := Open(path, g, 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	engine, err := core.NewEngine(disk, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: the store works before the failure.
	q := core.Query{
		Locations: []roadnet.VertexID{3, 17},
		Keywords:  mem.Keywords(5),
		Lambda:    0.5,
		K:         5,
	}
	win := core.TimeWindow{From: 0, To: 24*3600 - 1}
	if _, _, err := engine.SearchWindowedCtx(context.Background(), q, win); err != nil {
		t.Fatalf("pre-failure windowed search: %v", err)
	}

	// The device fails: the payload region disappears out from under the
	// open store. The index (already in memory) still points into it.
	if err := os.Truncate(path, 64); err != nil {
		t.Fatal(err)
	}

	// The windowed search loads every candidate's record for its start
	// time, so it must hit the dead region.
	res, _, err := engine.SearchWindowedCtx(context.Background(), q, win)
	if err == nil {
		t.Fatal("windowed search over a truncated store succeeded")
	}
	if !errors.Is(err, core.ErrStoreFault) {
		t.Errorf("err %v does not wrap core.ErrStoreFault", err)
	}
	var se *trajdb.StoreError
	if !errors.As(err, &se) {
		t.Errorf("err %v does not carry a *trajdb.StoreError", err)
	} else if se.Op != "read" && se.Op != "decode" {
		t.Errorf("StoreError op = %q, want read or decode", se.Op)
	}
	if res != nil {
		t.Errorf("got %d results alongside the store fault", len(res))
	}

	// Raw store access outside an engine call still panics by contract;
	// confirm the payload is a typed StoreError so callers can recover it.
	func() {
		defer func() {
			rec := recover()
			if rec == nil {
				t.Error("raw Traj on a truncated store did not panic")
				return
			}
			if _, ok := rec.(*trajdb.StoreError); !ok {
				t.Errorf("raw panic payload %T, want *trajdb.StoreError", rec)
			}
		}()
		disk.Traj(42)
	}()
}
