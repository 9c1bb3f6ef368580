package diskstore

import (
	"context"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"uots/internal/core"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// openTwice creates a disk store and opens it once with the sidecar in
// place and once with it removed, returning (warm, cold).
func openTwice(t *testing.T) (*trajdb.Store, *Store, *Store) {
	t.Helper()
	g := roadnet.BRNLike(0.1, 5)
	vocab := textual.GenerateVocab(5, 25, 1.0, 3)
	mem, err := trajdb.Generate(g, trajdb.GenOptions{
		Count: 120, MeanSamples: 15, Vocab: vocab, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.dsk")
	if err := Create(path, mem); err != nil {
		t.Fatal(err)
	}
	warm, err := Open(path, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { warm.Close() })
	if err := os.Remove(trajdb.SidecarPath(path)); err != nil {
		t.Fatal(err)
	}
	cold, err := Open(path, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cold.Close() })
	return mem, warm, cold
}

// TestWarmStartMatchesColdScan: Create writes the sidecar, a fresh Open
// adopts it without the rebuild scan, and the store it restores answers
// like the scan's (trajdb.TestSidecarRoundTrip compares the two indexes
// field by field).
func TestWarmStartMatchesColdScan(t *testing.T) {
	mem, warm, cold := openTwice(t)
	if !warm.WarmStart() {
		t.Fatal("Open did not adopt the sidecar Create just wrote")
	}
	if cold.WarmStart() {
		t.Fatal("Open claims a warm start with the sidecar deleted")
	}
	for term := 0; term < mem.Vocab().Size(); term++ {
		if w, c := warm.TextIndex().DocFreq(textual.TermID(term)), cold.TextIndex().DocFreq(textual.TermID(term)); w != c {
			t.Fatalf("doc frequency of term %d: warm %d, cold %d", term, w, c)
		}
	}
	// Behavioral check: a warm-started engine answers like the in-memory
	// engine (record payloads still come off disk either way).
	memEng, err := core.NewEngine(mem, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warmEng, err := core.NewEngine(warm, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(4, 0))
	for i := 0; i < 5; i++ {
		q := core.Query{
			Locations: []roadnet.VertexID{
				roadnet.VertexID(rng.IntN(mem.Graph().NumVertices())),
				roadnet.VertexID(rng.IntN(mem.Graph().NumVertices())),
			},
			Keywords: textual.TermSet{textual.TermID(rng.IntN(mem.Vocab().Size()))},
			Lambda:   0.5,
			K:        5,
		}
		want, _, err := memEng.SearchCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := warmEng.SearchCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: warm-start engine diverges from memory engine\ngot  %+v\nwant %+v", i, got, want)
		}
	}
}

// TestDamagedSidecarFallsBackToScan: a corrupt or stale sidecar must
// never fail the open or change behavior — it only costs the scan.
func TestDamagedSidecarFallsBackToScan(t *testing.T) {
	g := roadnet.BRNLike(0.1, 5)
	vocab := textual.GenerateVocab(5, 25, 1.0, 3)
	mem, err := trajdb.Generate(g, trajdb.GenOptions{
		Count: 60, MeanSamples: 10, Vocab: vocab, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.dsk")
	if err := Create(path, mem); err != nil {
		t.Fatal(err)
	}
	scPath := trajdb.SidecarPath(path)

	corrupt := func(t *testing.T, mutate func([]byte) []byte) {
		t.Helper()
		raw, err := os.ReadFile(scPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scPath, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"garbage", func([]byte) []byte { return []byte("not a sidecar at all") }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"stale fingerprint", func(b []byte) []byte {
			// Flip a bit of the record checksum the sidecar was written for.
			b = append([]byte(nil), b...)
			b[8] ^= 0x01
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			corrupt(t, tc.mutate)
			s, err := Open(path, g, 0)
			if err != nil {
				t.Fatalf("damaged sidecar failed the open: %v", err)
			}
			defer s.Close()
			if s.WarmStart() {
				t.Error("damaged sidecar was adopted as a warm start")
			}
			if s.NumTrajectories() != mem.NumTrajectories() {
				t.Errorf("fallback store has %d trajectories, want %d",
					s.NumTrajectories(), mem.NumTrajectories())
			}
		})
	}
}
