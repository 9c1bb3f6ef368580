package trajdb_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"uots/internal/diskstore"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// FuzzReadStore is the store-file target. The same bytes go to both
// readers of the format — trajdb.ReadStore, which keeps the records, and
// diskstore.Open, which scans them for its index and reads them back one
// at a time — and the two must fail together or answer every TrajStore
// question identically, with every trajectory inside the store
// invariants. Never a panic; TestReadStoreBoundsEveryCount holds the
// allocation bound on the count seeds.
func FuzzReadStore(f *testing.F) {
	g, err := roadnet.GenerateCity(roadnet.CityOptions{Rows: 6, Cols: 6, Style: roadnet.StyleDense, Seed: 2})
	if err != nil {
		f.Fatal(err)
	}
	db, err := trajdb.Generate(g, trajdb.GenOptions{Count: 8, MeanSamples: 5, Vocab: textual.GenerateVocab(2, 6, 1, 1), Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trajdb.WriteStore(&buf, db); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	mutated := bytes.Clone(valid)
	mutated[len(mutated)-3] ^= 0x7F
	huge := binary.LittleEndian.AppendUint32(nil, 1<<30)
	f.Add(valid)
	f.Add(valid[:len(valid)*2/3])
	f.Add(valid[:8])
	f.Add([]byte{})
	f.Add(mutated)
	f.Add(slices.Concat(valid[:8], make([]byte, 4), []byte{1, 0, 0, 0}, huge)) // TestReadStoreBoundsEveryCount's first case
	f.Add(slices.Concat(valid[:8], huge, make([]byte, 12)))
	f.Add(append(bytes.Clone(valid), 0))

	path := filepath.Join(f.TempDir(), "fuzz.trajs")
	f.Fuzz(func(t *testing.T, data []byte) {
		mem, memErr := trajdb.ReadStore(bytes.NewReader(data), g)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		disk, diskErr := diskstore.Open(path, g, 0)
		if (memErr == nil) != (diskErr == nil) {
			t.Fatalf("ReadStore: %v, but diskstore.Open: %v", memErr, diskErr)
		}
		if memErr != nil {
			return
		}
		defer disk.Close()
		if disk.NumTrajectories() != mem.NumTrajectories() || disk.Vocab().Size() != mem.Vocab().Size() {
			t.Fatalf("%d trajectories over %d terms on disk, %d over %d in memory",
				disk.NumTrajectories(), disk.Vocab().Size(), mem.NumTrajectories(), mem.Vocab().Size())
		}
		for i := 0; i < mem.NumTrajectories(); i++ {
			id := trajdb.TrajID(i)
			tr := mem.Traj(id)
			if err := trajdb.ValidateSamples(g, tr.Samples); err != nil {
				t.Fatalf("trajectory %d was read but is invalid: %v", id, err)
			}
			if !reflect.DeepEqual(disk.Traj(id), tr) ||
				!reflect.DeepEqual(disk.Keywords(id), mem.Keywords(id)) ||
				!reflect.DeepEqual(disk.UniqueVertices(id), mem.UniqueVertices(id)) ||
				disk.BBox(id) != mem.BBox(id) {
				t.Fatalf("trajectory %d differs between disk and memory", id)
			}
			for _, s := range tr.Samples {
				if !disk.ContainsVertex(id, s.V) {
					t.Fatalf("trajectory %d on disk does not contain its vertex %d", id, s.V)
				}
			}
		}
		for v := 0; v < g.NumVertices(); v++ {
			if !reflect.DeepEqual(disk.TrajsAtVertex(roadnet.VertexID(v)), mem.TrajsAtVertex(roadnet.VertexID(v))) {
				t.Fatalf("postings of vertex %d differ between disk and memory", v)
			}
		}
		for term := 0; term < mem.Vocab().Size(); term++ {
			if d, m := disk.TextIndex().DocFreq(textual.TermID(term)), mem.TextIndex().DocFreq(textual.TermID(term)); d != m {
				t.Fatalf("document frequency of term %d: %d on disk, %d in memory", term, d, m)
			}
		}
	})
}
