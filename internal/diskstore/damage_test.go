package diskstore

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"uots/internal/core"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// TestStaleSidecarIsIgnored: the record file is rewritten with the same
// trips in reverse order while the sidecar of the first Create stays —
// what a second Create leaves when it dies between the record file and
// its sidecar rename. Every size the two files could be compared by is
// equal (trips, vertices, vocabulary, record bytes); only the content
// checksum tells them apart. Open must scan, and answer as the in-memory
// engine over the new records does.
func TestStaleSidecarIsIgnored(t *testing.T) {
	g := roadnet.BRNLike(0.1, 5)
	a, err := trajdb.Generate(g, trajdb.GenOptions{
		Count: 120, MeanSamples: 15, Vocab: textual.GenerateVocab(5, 25, 1.0, 3), Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	reversed := trajdb.NewBuilder(g, a.Vocab())
	for id := a.NumTrajectories() - 1; id >= 0; id-- {
		tr := a.Traj(trajdb.TrajID(id))
		if _, err := reversed.Add(tr.Samples, tr.Keywords); err != nil {
			t.Fatal(err)
		}
	}
	b := reversed.Freeze()

	dir := t.TempDir()
	path, rewrite := filepath.Join(dir, "world.dsk"), filepath.Join(dir, "rewrite.dsk")
	if err := Create(path, a); err != nil {
		t.Fatal(err)
	}
	if err := Create(rewrite, b); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(rewrite, path); err != nil {
		t.Fatal(err)
	}

	disk, err := Open(path, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if disk.WarmStart() {
		t.Error("Open adopted a sidecar written for other records")
	}
	memEngine, err := core.NewEngine(b, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	diskEngine, err := core.NewEngine(disk, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{Locations: []roadnet.VertexID{3, 17}, Keywords: b.Keywords(5), Lambda: 0.5, K: 5}
	want, _, err := memEngine.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := diskEngine.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the disk store answers\n%+v\nthe engine over the records it holds answers\n%+v", got, want)
	}
}

// TestOpenBoundsEveryCount: 1<<30 where a count belongs, with no bytes
// behind it, is an error in the store file and a cold start in the
// sidecar — not slices sized from it, which ended the process with
// "fatal error: runtime: out of memory". Both files take the magic of a
// valid one, so the inputs reach the counts.
func TestOpenBoundsEveryCount(t *testing.T) {
	g := roadnet.BRNLike(0.05, 1)
	mem, err := trajdb.Generate(g, trajdb.GenOptions{Count: 5, MeanSamples: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.dsk")
	if err := Create(path, mem); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sidecar, err := os.ReadFile(path + ".idx")
	if err != nil {
		t.Fatal(err)
	}
	huge := binary.LittleEndian.AppendUint32(nil, 1<<30)

	// 28 bytes: magic, three counts of 1<<30, a u64.
	if err := os.WriteFile(path+".idx", slices.Concat(sidecar[:8], huge, huge, huge, make([]byte, 8)), 0o644); err != nil {
		t.Fatal(err)
	}
	disk, err := Open(path, g, 0)
	if err != nil {
		t.Fatalf("a damaged sidecar failed the open: %v", err)
	}
	if disk.WarmStart() || disk.NumTrajectories() != mem.NumTrajectories() {
		t.Errorf("warm %v with %d trajectories, want a scan finding %d", disk.WarmStart(), disk.NumTrajectories(), mem.NumTrajectories())
	}
	disk.Close()

	// The store-file twin: magic, 1<<30 records, no vocabulary.
	if err := os.WriteFile(path, slices.Concat(file[:8], huge, make([]byte, 12)), 0o644); err != nil {
		t.Fatal(err)
	}
	if disk, err := Open(path, g, 0); err == nil {
		disk.Close()
		t.Error("a 24-byte file claiming 1<<30 records was opened")
	}
}
