package trajdb

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"uots/internal/roadnet"
	"uots/internal/textual"
)

func fuzzGraph(f *testing.F) *roadnet.Graph {
	f.Helper()
	g, err := roadnet.GenerateCity(roadnet.CityOptions{
		Rows: 6, Cols: 6, Style: roadnet.StyleDense, Seed: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	return g
}

// fuzzStoreFile generates a small store and returns it with its file
// bytes.
func fuzzStoreFile(f *testing.F, g *roadnet.Graph, seed uint64) (*Store, []byte) {
	f.Helper()
	db, err := Generate(g, GenOptions{Count: 8, MeanSamples: 5, Vocab: textual.GenerateVocab(2, 6, 1, 1), Seed: seed})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteStore(&buf, db); err != nil {
		f.Fatal(err)
	}
	return db, buf.Bytes()
}

// FuzzReadSidecar asserts the sidecar decoder's contract: on arbitrary
// bytes it fails or returns exactly the Index and term sets a scan of the
// store file builds — never a panic, never a different index. Seeds: the
// valid sidecar and its truncations, a stale one (a valid sidecar of
// other records — with the valid one, the pair a crashed rewrite leaves),
// and counts of 1<<30 in today's layout and in the previous one, whose
// decoder sized slices from them.
func FuzzReadSidecar(f *testing.F) {
	g := fuzzGraph(f)
	db, file := fuzzStoreFile(f, g, 3)
	h, err := readHeader(bytes.NewReader(file))
	if err != nil {
		f.Fatal(err)
	}
	want, wantTerms, err := h.scanIndex(bytes.NewReader(file[h.recordsAt:]), g)
	if err != nil {
		f.Fatal(err)
	}

	valid := encodeSidecar(db, h.sum)
	if _, _, err := decodeSidecar(valid, h, g); err != nil {
		f.Fatalf("the valid sidecar does not decode: %v", err)
	}
	other, otherFile := fuzzStoreFile(f, g, 4)
	otherHeader, err := readHeader(bytes.NewReader(otherFile))
	if err != nil {
		f.Fatal(err)
	}
	huge := []byte{0, 0, 0, 0x40}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(sidecarMagic)+8])
	f.Add(encodeSidecar(other, otherHeader.sum))
	f.Add(slices.Concat(valid[:len(sidecarMagic)+8], huge, huge, huge, make([]byte, 8)))
	f.Add(slices.Concat([]byte(sidecarMagic), huge, huge, huge, make([]byte, 8)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotTerms, err := decodeSidecar(data, h, g)
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotTerms, wantTerms) {
			t.Fatal("a sidecar decoded into an index the record scan does not build")
		}
	})
}

// FuzzImportCSV asserts the CSV importer never panics on arbitrary text.
func FuzzImportCSV(f *testing.F) {
	g := fuzzGraph(f)
	db, err := Generate(g, GenOptions{Count: 4, MeanSamples: 4, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportCSV(&buf, db); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("traj_id,seq,vertex,time_seconds,keywords\n0,0,1,0,\n")
	f.Add("traj_id,seq,vertex,time_seconds,keywords\n")
	f.Add("")
	f.Add("garbage\nmore garbage")
	f.Add("traj_id,seq,vertex,time_seconds,keywords\n0,0,999999,0,\n")

	f.Fuzz(func(t *testing.T, data string) {
		got, err := ImportCSV(strings.NewReader(data), g)
		if err != nil {
			return
		}
		for id := 0; id < got.NumTrajectories(); id++ {
			if got.Traj(TrajID(id)).Len() == 0 {
				t.Fatal("imported trajectory has no samples")
			}
		}
	})
}
