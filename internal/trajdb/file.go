package trajdb

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"uots/internal/roadnet"
	"uots/internal/textual"
)

// SidecarPath is where the index sidecar of the store file at path lives.
func SidecarPath(path string) string { return path + ".idx" }

// CreateFile writes s as a store file at path and its Index as the
// sidecar beside it. The sidecar goes through a temporary file and a
// rename, after the store file: a crash in between leaves the previous
// sidecar, whose checksum no longer matches, or none — either way the
// next OpenFile scans.
func CreateFile(path string, s *Store) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sum, err := writeStore(f, s)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	tmp := SidecarPath(path) + ".tmp"
	if err := os.WriteFile(tmp, encodeSidecar(s, sum), 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, SidecarPath(path))
}

// File is an open store file with only its Index and term sets resident:
// records stay on disk and Load reads one at a time.
type File struct {
	Index
	docTerms []textual.TermSet // by TrajID
	offsets  []int64           // record id occupies offsets[id]..offsets[id+1]
	f        *os.File
	warm     bool
}

// OpenFile opens the store file at path over g. The Index comes from the
// sidecar when that carries the file's record checksum (a warm start: no
// record is read); a missing, stale or damaged sidecar costs one
// sequential scan of the records, which also verifies the checksum.
func OpenFile(path string, g *roadnet.Graph) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	file, err := openFile(f, SidecarPath(path), g)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return file, nil
}

func openFile(f *os.File, sidecarPath string, g *roadnet.Graph) (*File, error) {
	br := bufio.NewReader(f)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	file := &File{f: f, offsets: make([]int64, len(h.sizes)+1)}
	file.offsets[0] = h.recordsAt
	for id, size := range h.sizes {
		file.offsets[id+1] = file.offsets[id] + int64(size)
	}
	if fi, err := f.Stat(); err != nil {
		return nil, err
	} else if end := file.offsets[len(h.sizes)]; fi.Size() != end {
		return nil, fmt.Errorf("trajdb: file is %d bytes, its header describes %d", fi.Size(), end)
	}
	if b, err := os.ReadFile(sidecarPath); err == nil {
		if file.Index, file.docTerms, err = decodeSidecar(b, h, g); err == nil {
			file.warm = true
			return file, nil
		}
	}
	if file.Index, file.docTerms, err = h.scanIndex(br, g); err != nil {
		return nil, err
	}
	return file, nil
}

// scanIndex builds from the records on r what decodeSidecar reads back:
// the Index and the term set of every trajectory.
func (h *header) scanIndex(r io.Reader, g *roadnet.Graph) (Index, []textual.TermSet, error) {
	ix := newIndex(g, h.vocab)
	var docTerms []textual.TermSet
	err := h.scanRecords(r, g, func(t Trajectory) {
		ix.add(t.Samples, t.Keywords)
		docTerms = append(docTerms, t.Keywords)
	})
	ix.textIx.Freeze()
	return ix, docTerms, err
}

// WarmStart reports whether OpenFile adopted the sidecar instead of
// scanning the records.
func (f *File) WarmStart() bool { return f.warm }

// Close releases the underlying file. The File must not be used after.
func (f *File) Close() error { return f.f.Close() }

// Keywords returns the keyword set of trajectory id from memory. The
// result must not be modified.
func (f *File) Keywords(id TrajID) textual.TermSet { return f.docTerms[id] }

// Load reads and decodes record id, returning it, its ascending unique
// vertices and its size on disk. The header was validated at OpenFile, so
// a failure means the file changed underneath (truncated, device gone):
// Load panics with a *StoreError, the core.TrajStore fault convention
// the engine recovers into a query error.
func (f *File) Load(id TrajID) (*Trajectory, []roadnet.VertexID, int) {
	buf := make([]byte, f.offsets[id+1]-f.offsets[id])
	if _, err := f.f.ReadAt(buf, f.offsets[id]); err != nil {
		panic(&StoreError{Op: "read", ID: id, Err: err})
	}
	t, err := decodeRecord(buf, id, f.g, f.vocab.Size())
	if err != nil {
		panic(&StoreError{Op: "decode", ID: id, Err: err})
	}
	return &t, uniqueVertices(t.Samples), len(buf)
}
