package trajdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"slices"

	"uots/internal/geo"
	"uots/internal/roadnet"
	"uots/internal/textual"
)

// storeMagic identifies the store file — the dataset file uotsdgen writes
// and the record file the disk store serves are the same file:
//
//	magic       8 bytes  "UOTSTRJ2"
//	numTrajs    u32
//	vocabSize   u32
//	checksum    u64      CRC-64/ECMA of the record section
//	vocabulary  vocabSize × (u32 len, len bytes), in TermID order
//	sizes       numTrajs × u32, the byte length of each record
//	records     numTrajs × (u32 ns, ns × (u32 vertex, f64 t), u32 nk, nk × u32 TermID)
//
// sidecarMagic identifies the index sidecar at SidecarPath, the
// serialised Index of one store file:
//
//	magic       8 bytes  "UOTSIDX2"
//	checksum    u64      the store file's, copied
//	numTrajs, numVertices, vocabSize   u32 each
//	bboxes      numTrajs × 4 f64 (minX minY maxX maxY)
//	postings    numVertices × (u32 len, len × u32 TrajID)
//	doc terms   numTrajs × (u32 len, len × u32 TermID)
//	trailer     u64      CRC-64/ECMA of every byte before it
//
// All integers are little-endian; every ID list is strictly ascending.
// CONTRIBUTING.md "Dataset file and index sidecar" is the contract.
const (
	storeMagic   = "UOTSTRJ2"
	sidecarMagic = "UOTSIDX2"
)

var (
	le       = binary.LittleEndian
	crcTable = crc64.MakeTable(crc64.ECMA)
)

// WriteStore serializes the trajectories and vocabulary of s (not the
// graph — serialize that separately with roadnet.WriteGraph) as a store
// file.
func WriteStore(w io.Writer, s *Store) error {
	_, err := writeStore(w, s)
	return err
}

// writeStore is WriteStore, returning the record checksum it stored for
// the sidecar to repeat.
func writeStore(w io.Writer, s *Store) (uint64, error) {
	// The header states every record's size and their checksum ahead of
	// the records, so each record is encoded twice rather than all of
	// them held in memory.
	var rec []byte
	var sum uint64
	sizes := make([]byte, 0, 4*len(s.trajs))
	for i := range s.trajs {
		rec = appendRecord(rec[:0], &s.trajs[i])
		sizes = le.AppendUint32(sizes, uint32(len(rec)))
		sum = crc64.Update(sum, crcTable, rec)
	}
	vocabSize := 0
	if s.vocab != nil {
		vocabSize = s.vocab.Size()
	}
	// bufio.Writer keeps its first error and returns it from Flush.
	bw := bufio.NewWriter(w)
	head := le.AppendUint32([]byte(storeMagic), uint32(len(s.trajs)))
	head = le.AppendUint32(head, uint32(vocabSize))
	bw.Write(le.AppendUint64(head, sum))
	for id := 0; id < vocabSize; id++ {
		term, ok := s.vocab.Term(textual.TermID(id))
		if !ok {
			return 0, fmt.Errorf("trajdb: vocabulary hole at term %d", id)
		}
		bw.Write(le.AppendUint32(rec[:0], uint32(len(term))))
		bw.WriteString(term)
	}
	bw.Write(sizes)
	for i := range s.trajs {
		rec = appendRecord(rec[:0], &s.trajs[i])
		bw.Write(rec)
	}
	return sum, bw.Flush()
}

// ReadStore deserializes a store file written by WriteStore, verifies its
// record checksum, and builds the indexes over the given graph.
func ReadStore(r io.Reader, g *roadnet.Graph) (*Store, error) {
	br := bufio.NewReader(r)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(g, h.vocab)
	if err := h.scanRecords(br, g, func(t Trajectory) { b.trajs = append(b.trajs, t) }); err != nil {
		return nil, err
	}
	return b.Freeze(), nil
}

// header is a store file up to its first record.
type header struct {
	vocab     *textual.Vocab
	sizes     []uint32 // record byte lengths by TrajID
	sum       uint64   // the stored checksum of the record section
	recordsAt int64    // file offset of record 0
}

func readHeader(r io.Reader) (*header, error) {
	fixed, err := readN(r, nil, len(storeMagic)+16)
	if err != nil {
		return nil, fmt.Errorf("trajdb: reading header: %w", err)
	}
	if string(fixed[:len(storeMagic)]) != storeMagic {
		return nil, fmt.Errorf("trajdb: bad magic %q", fixed[:len(storeMagic)])
	}
	c := cursor{b: fixed[len(storeMagic):]}
	numTrajs, vocabSize := int(c.u32()), int(c.u32())
	h := &header{vocab: textual.NewVocab(), sum: c.u64(), recordsAt: int64(len(fixed))}
	var buf []byte
	for i := 0; i < vocabSize; i++ {
		if buf, err = readN(r, buf, 4); err == nil {
			buf, err = readN(r, buf, int(le.Uint32(buf)))
		}
		if err != nil {
			return nil, fmt.Errorf("trajdb: reading term %d: %w", i, err)
		}
		if id, ok := h.vocab.Intern(string(buf)); !ok || id != textual.TermID(i) {
			return nil, fmt.Errorf("trajdb: term %d (%q) does not re-intern to its ID", i, buf)
		}
		h.recordsAt += 4 + int64(len(buf))
	}
	if buf, err = readN(r, buf, 4*numTrajs); err != nil {
		return nil, fmt.Errorf("trajdb: reading the size of %d records: %w", numTrajs, err)
	}
	h.sizes = make([]uint32, numTrajs)
	for i := range h.sizes {
		h.sizes[i] = le.Uint32(buf[4*i:])
	}
	h.recordsAt += int64(len(buf))
	return h, nil
}

// scanRecords decodes every record in ID order from r, which readHeader
// left at record 0, and hands each to visit. It fails unless the records
// hash to the header's checksum and end the input.
func (h *header) scanRecords(r io.Reader, g *roadnet.Graph, visit func(Trajectory)) error {
	var buf []byte
	var sum uint64
	vocabSize := h.vocab.Size()
	for id, size := range h.sizes {
		var err error
		if buf, err = readN(r, buf, int(size)); err != nil {
			return fmt.Errorf("trajdb: reading trajectory %d: %w", id, err)
		}
		sum = crc64.Update(sum, crcTable, buf)
		t, err := decodeRecord(buf, TrajID(id), g, vocabSize)
		if err != nil {
			return fmt.Errorf("trajdb: trajectory %d: %w", id, err)
		}
		visit(t)
	}
	if sum != h.sum {
		return fmt.Errorf("trajdb: records hash to %016x, the header says %016x", sum, h.sum)
	}
	if _, err := readN(r, buf, 1); err != io.EOF {
		return fmt.Errorf("trajdb: trailing bytes after the last record")
	}
	return nil
}

// readN reads exactly n bytes of r into buf, growing it only as bytes
// arrive: a length that lies about the input costs an error, never more
// memory than the input itself.
func readN(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(cap(buf)-len(buf), 64<<10))
		buf = slices.Grow(buf, step)[:len(buf)+step]
		if _, err := io.ReadFull(r, buf[len(buf)-step:]); err != nil {
			return buf[:0], err
		}
	}
	return buf, nil
}

// appendRecord appends the record encoding of t to dst.
func appendRecord(dst []byte, t *Trajectory) []byte {
	dst = le.AppendUint32(dst, uint32(len(t.Samples)))
	for _, s := range t.Samples {
		dst = le.AppendUint32(dst, uint32(s.V))
		dst = le.AppendUint64(dst, math.Float64bits(s.T))
	}
	return appendIDs(dst, t.Keywords)
}

// decodeRecord decodes one whole record and checks it against the store
// invariants (ValidateSamples, keywords inside the vocabulary).
func decodeRecord(buf []byte, id TrajID, g *roadnet.Graph, vocabSize int) (Trajectory, error) {
	c := cursor{b: buf}
	samples := make([]Sample, c.count(12))
	for i := range samples {
		samples[i] = Sample{V: roadnet.VertexID(c.u32()), T: c.f64()}
	}
	keywords := readIDs[textual.TermID](&c, vocabSize)
	if err := c.end(); err != nil {
		return Trajectory{}, err
	}
	if err := ValidateSamples(g, samples); err != nil {
		return Trajectory{}, err
	}
	return Trajectory{ID: id, Samples: samples, Keywords: keywords}, nil
}

// encodeSidecar serialises the Index of s for the store file whose record
// checksum is storeSum. The text index persists as the per-trajectory
// term sets it is re-derived from.
func encodeSidecar(s *Store, storeSum uint64) []byte {
	vocabSize := 0
	if s.vocab != nil {
		vocabSize = s.vocab.Size()
	}
	b := le.AppendUint64([]byte(sidecarMagic), storeSum)
	for _, n := range [3]int{len(s.trajs), len(s.vertexIx), vocabSize} {
		b = le.AppendUint32(b, uint32(n))
	}
	for _, box := range s.bboxes {
		for _, x := range [4]float64{box.Min.X, box.Min.Y, box.Max.X, box.Max.Y} {
			b = le.AppendUint64(b, math.Float64bits(x))
		}
	}
	for _, list := range s.vertexIx {
		b = appendIDs(b, list)
	}
	for i := range s.trajs {
		b = appendIDs(b, s.trajs[i].Keywords)
	}
	return le.AppendUint64(b, crc64.Checksum(b, crcTable))
}

// decodeSidecar rebuilds the Index and term sets of the store file headed
// by h from sidecar bytes. It fails on a sidecar written for other
// records (stale), one that no longer hashes to its trailer (damaged),
// and one whose counts or lists do not fit h and g.
func decodeSidecar(b []byte, h *header, g *roadnet.Graph) (Index, []textual.TermSet, error) {
	if len(b) < len(sidecarMagic)+8 || string(b[:len(sidecarMagic)]) != sidecarMagic {
		return Index{}, nil, fmt.Errorf("trajdb: not an index sidecar")
	}
	body := b[:len(b)-8]
	c := cursor{b: body[len(sidecarMagic):]}
	if sum := c.u64(); sum != h.sum {
		return Index{}, nil, fmt.Errorf("trajdb: sidecar is for records hashing to %016x, not %016x", sum, h.sum)
	}
	if crc64.Checksum(body, crcTable) != le.Uint64(b[len(body):]) {
		return Index{}, nil, fmt.Errorf("trajdb: sidecar does not hash to its trailer")
	}
	numTrajs, vocabSize := len(h.sizes), h.vocab.Size()
	if got := [3]int{int(c.u32()), int(c.u32()), int(c.u32())}; got != [3]int{numTrajs, g.NumVertices(), vocabSize} {
		return Index{}, nil, fmt.Errorf("trajdb: sidecar counts %v do not fit the store", got)
	}
	ix := newIndex(g, h.vocab)
	ix.bboxes = make([]geo.Rect, numTrajs)
	for i := range ix.bboxes {
		ix.bboxes[i] = geo.Rect{Min: geo.Point{X: c.f64(), Y: c.f64()}, Max: geo.Point{X: c.f64(), Y: c.f64()}}
	}
	for v := range ix.vertexIx {
		ix.vertexIx[v] = readIDs[TrajID](&c, numTrajs)
	}
	docTerms := make([]textual.TermSet, numTrajs)
	for id := range docTerms {
		docTerms[id] = readIDs[textual.TermID](&c, vocabSize)
		ix.textIx.Add(textual.DocID(id), docTerms[id])
	}
	ix.textIx.Freeze()
	if err := c.end(); err != nil {
		return Index{}, nil, fmt.Errorf("trajdb: sidecar: %w", err)
	}
	return ix, docTerms, nil
}

// cursor decodes little-endian fields off the front of b. The first
// failure sticks in err and empties b, so decoders read on (getting
// zeros) and check once with end.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.b = nil
}

func (c *cursor) u32() uint32 {
	if len(c.b) < 4 {
		c.fail(io.ErrUnexpectedEOF)
		return 0
	}
	v := le.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

func (c *cursor) u64() uint64 {
	if len(c.b) < 8 {
		c.fail(io.ErrUnexpectedEOF)
		return 0
	}
	v := le.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// count reads the u32 length prefix of a list of elem-byte elements and
// refuses one the remaining bytes cannot hold — the check that bounds
// every decoder allocation by the size of its input.
func (c *cursor) count(elem int) int {
	n := int(c.u32())
	if n > len(c.b)/elem {
		c.fail(fmt.Errorf("a list of %d elements in %d bytes", n, len(c.b)))
		return 0
	}
	return n
}

// end reports the first failure, or bytes left over.
func (c *cursor) end() error {
	if c.err == nil && len(c.b) > 0 {
		c.err = fmt.Errorf("%d trailing bytes", len(c.b))
	}
	return c.err
}

// appendIDs appends a length-prefixed list of IDs (a term set, a posting
// list) to dst.
func appendIDs[T ~int32](dst []byte, ids []T) []byte {
	dst = le.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = le.AppendUint32(dst, uint32(id))
	}
	return dst
}

// readIDs reads a list written by appendIDs, requiring its IDs strictly
// ascending and below limit — the invariant of term sets and posting
// lists that merges and the expansion scan rely on. Empty lists are nil.
func readIDs[T ~int32](c *cursor, limit int) []T {
	n := c.count(4)
	if n == 0 {
		return nil
	}
	ids := make([]T, n)
	prev := -1
	for i := range ids {
		id := int(c.u32())
		if id <= prev || id >= limit {
			c.fail(fmt.Errorf("ID %d after %d, limit %d", id, prev, limit))
			return nil
		}
		ids[i], prev = T(id), id
	}
	return ids
}
