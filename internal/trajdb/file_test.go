package trajdb

import (
	"bytes"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"uots/internal/textual"
)

// sidecarWorld writes a two-trajectory store file — both trajectories
// sample vertex 0, so its posting list is the first non-empty one — and
// returns the path, the header and the sidecar bytes.
func sidecarWorld(t *testing.T) (string, *header, []byte) {
	t.Helper()
	b := NewBuilder(testGraph(t), textual.NewVocab())
	for _, kw := range [][]string{{"food", "art"}, {"art"}} {
		if _, err := b.AddWithKeywords([]Sample{{V: 0, T: 10}, {V: 5, T: 20}}, kw); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "w.trajs")
	if err := CreateFile(path, b.Freeze()); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := readHeader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	sidecar, err := os.ReadFile(SidecarPath(path))
	if err != nil {
		t.Fatal(err)
	}
	return path, h, sidecar
}

// TestSidecarRoundTrip: the Index a warm start adopts from the sidecar is
// the one the record scan builds.
func TestSidecarRoundTrip(t *testing.T) {
	path, _, _ := sidecarWorld(t)
	g := testGraph(t)
	warm, err := OpenFile(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if err := os.Remove(SidecarPath(path)); err != nil {
		t.Fatal(err)
	}
	cold, err := OpenFile(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if !warm.WarmStart() || cold.WarmStart() {
		t.Fatalf("WarmStart: %v with the sidecar, %v without", warm.WarmStart(), cold.WarmStart())
	}
	if !reflect.DeepEqual(warm.Index, cold.Index) || !reflect.DeepEqual(warm.docTerms, cold.docTerms) {
		t.Error("the index adopted from the sidecar differs from the scan's")
	}
	if !reflect.DeepEqual(warm.TrajsAtVertex(0), []TrajID{0, 1}) || warm.TextIndex().DocFreq(warm.Keywords(1)[0]) != 2 {
		t.Errorf("postings of vertex 0 %v, doc frequency of %v: %d", warm.TrajsAtVertex(0), warm.Keywords(1), warm.TextIndex().DocFreq(warm.Keywords(1)[0]))
	}
}

// TestSidecarRejectsDamage: every corruption shape is an error at decode
// time, so a damaged or stale sidecar degrades to the record scan instead
// of serving a wrong index. Cases past the trailer check are resealed:
// the structural checks must hold on their own.
func TestSidecarRejectsDamage(t *testing.T) {
	_, h, good := sidecarWorld(t)
	g := testGraph(t)
	if _, _, err := decodeSidecar(good, h, g); err != nil {
		t.Fatalf("undamaged sidecar: %v", err)
	}
	reseal := func(b []byte) []byte {
		return le.AppendUint64(b[:len(b)-8], crc64.Checksum(b[:len(b)-8], crcTable))
	}
	const counts = len(sidecarMagic) + 8
	const posting = counts + 12 + 2*32 + 4 // first ID of vertex 0's list (0, 1)
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func([]byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0xaa) }},
		{"flipped payload bit", func(b []byte) []byte { b[counts+20] ^= 1; return b }},
		{"stale: other records' checksum", func(b []byte) []byte { b[len(sidecarMagic)] ^= 1; return reseal(b) }},
		{"trajectory count", func(b []byte) []byte { b[counts]++; return reseal(b) }},
		{"vertex count", func(b []byte) []byte { b[counts+4]++; return reseal(b) }},
		{"vocabulary size", func(b []byte) []byte { b[counts+8]++; return reseal(b) }},
		{"posting outside the corpus", func(b []byte) []byte { b[posting+4] = 7; return reseal(b) }},
		{"descending postings", func(b []byte) []byte { b[posting], b[posting+4] = 1, 0; return reseal(b) }},
		{"duplicate posting", func(b []byte) []byte { b[posting+4] = 0; return reseal(b) }},
		{"posting list longer than the file", func(b []byte) []byte { b[posting-1] = 0x40; return reseal(b) }},
		{"resealed truncation", func(b []byte) []byte { return reseal(b[:len(b)-4]) }},
	}
	for _, tc := range cases {
		if _, _, err := decodeSidecar(tc.mutate(bytes.Clone(good)), h, g); err == nil {
			t.Errorf("%s: damaged sidecar decoded without error", tc.name)
		}
	}
}

// TestWriteSidecarOverwrites: a second CreateFile at the same path
// replaces both files and leaves no temporary behind.
func TestWriteSidecarOverwrites(t *testing.T) {
	path, _, _ := sidecarWorld(t)
	g := testGraph(t)
	next, err := Generate(g, GenOptions{Count: 9, MeanSamples: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := CreateFile(path, next); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.WarmStart() || f.NumTrajectories() != 9 {
		t.Errorf("after the overwrite: warm %v, %d trajectories, want true and 9", f.WarmStart(), f.NumTrajectories())
	}
	if _, err := os.Stat(SidecarPath(path) + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary sidecar left behind: %v", err)
	}
}
