package trajdb_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// TestReadStoreBoundsEveryCount: a length the file states is checked
// against the bytes actually there before anything is sized from it, so
// a damaged file is an error, not a process killed by the allocator. The
// first case is the 24 bytes — magic, 0, 1, 1<<30 — that ended the
// previous reader with "fatal error: runtime: out of memory"; the others
// put 1<<30 in each count of the current layout.
func TestReadStoreBoundsEveryCount(t *testing.T) {
	g, err := roadnet.GenerateCity(roadnet.CityOptions{Rows: 4, Cols: 4, Style: roadnet.StyleDense, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var empty bytes.Buffer
	if err := trajdb.WriteStore(&empty, trajdb.NewBuilder(g, textual.NewVocab()).Freeze()); err != nil {
		t.Fatal(err)
	}
	magic := empty.Bytes()[:8]
	const huge = 1 << 30
	cases := []struct {
		name   string
		fields []uint32 // after the magic: numTrajs, vocabSize, checksum (two words), ...
	}{
		{"sample count, previous layout", []uint32{0, 1, huge}},
		{"trajectory count", []uint32{huge, 0, 0, 0}},
		{"vocabulary size", []uint32{0, huge, 0, 0}},
		{"term length", []uint32{0, 1, 0, 0, huge}},
		{"record size", []uint32{1, 0, 0, 0, huge}},
		{"sample count", []uint32{1, 0, 0, 0, 20, huge, 0, 0, 0, 0}},
		{"keyword count", []uint32{1, 0, 0, 0, 20, 1, 0, 0, 0, huge}},
	}
	for _, tc := range cases {
		data := bytes.Clone(magic)
		for _, f := range tc.fields {
			data = binary.LittleEndian.AppendUint32(data, f)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := trajdb.ReadStore(bytes.NewReader(data), g)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a %d-byte file claiming 1<<30 of something was read without error", tc.name, len(data))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: reading %d bytes allocated %d", tc.name, len(data), grew)
		}
	}
}
