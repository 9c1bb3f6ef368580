package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strings"

	"uots"
)

// Kind names what a read request exercises; latencies are split by it.
type Kind string

const (
	KindDefault     Kind = "default"
	KindWindowed    Kind = "windowed"
	KindOrderAware  Kind = "orderaware"
	KindThreshold   Kind = "threshold"
	KindDiversified Kind = "diversified"
	KindCitywide    Kind = "citywide"
	KindBatch       Kind = "batch"
)

// VariantKinds is the round-robin order of the variants-mix workload.
var VariantKinds = []Kind{KindWindowed, KindOrderAware, KindThreshold, KindDiversified, KindCitywide, KindBatch}

// Query parameters of the paper's default query.
const (
	Places        = 4     // |O|
	QueryKeywords = 3     // |ψ|
	Lambda        = 0.5   // λ
	TopK          = 10    // k
	ClusterRadius = 0.075 // of the city diagonal around the anchor: a cluster 0.15 across
	BatchSize     = 8     // default queries per POST /batch

	Window      = "07:00-11:00"
	WindowFromS = 7 * 3600 // Window in seconds of day, for the oracle
	WindowToS   = 11 * 3600
	Theta       = 0.5
	DiversifyMu = 0.5

	TrajsPerWrite = 8  // trajectories per POST /trajectories
	WritesPerSec  = 40 // paced writer schedule of ingest-mixed
)

// Search is the POST /search body (and one /batch entry): the HTTP
// fields the benchmark depends on.
type Search struct {
	VertexIDs   []int32  `json:"vertexIds"`
	Keywords    string   `json:"keywords"`
	Lambda      float64  `json:"lambda"`
	K           int      `json:"k"`
	Window      string   `json:"window,omitempty"`
	OrderAware  bool     `json:"orderAware,omitempty"`
	Theta       *float64 `json:"theta,omitempty"`
	DiversifyMu *float64 `json:"diversifyMu,omitempty"`
}

// Query is the engine form of s over vocab: what the server's handler
// makes of the same fields.
func (s Search) Query(vocab *uots.Vocab) uots.Query {
	q := uots.Query{Lambda: s.Lambda, K: s.K, Keywords: vocab.InternAll(uots.Tokenize(s.Keywords))}
	for _, v := range s.VertexIDs {
		q.Locations = append(q.Locations, uots.VertexID(v))
	}
	return q
}

// Batch is the POST /batch body. The shared planner is left at its
// default (on).
type Batch struct {
	Queries []Search `json:"queries"`
	Workers int      `json:"workers"`
}

// IngestSample, IngestTrajectory and Ingest are the POST /trajectories
// body.
type IngestSample struct {
	Vertex int32   `json:"vertex"`
	T      float64 `json:"t"`
}

type IngestTrajectory struct {
	Samples  []IngestSample `json:"samples"`
	Keywords string         `json:"keywords,omitempty"`
}

type Ingest struct {
	Trajectories []IngestTrajectory `json:"trajectories"`
}

// Request is one generated operation: the bytes the server receives and
// the structured form the oracle recomputes the answer from.
type Request struct {
	Kind     Kind
	Path     string   // "/search", "/batch" or "/trajectories"
	Body     []byte   // what goes on the wire
	Searches []Search // one for /search, BatchSize for /batch, none for writes
	Trajs    int      // trajectories carried by a write
}

// Topology names the set of server processes a workload runs against.
type Topology string

const (
	TopoMono   Topology = "mono"   // one default uotsserve
	TopoRemote Topology = "remote" // router + two uotsshard processes
	TopoIngest Topology = "ingest" // uotsserve -ingest -fsync always
)

// Workload is one traffic mix: the reads a closed loop cycles through
// and, for ingest-mixed, the writes a paced connection sends.
type Workload struct {
	Name     string
	Topology Topology
	Reads    []Request
	Writes   []Request
}

// Names lists the workloads in reporting order.
var Names = []string{"search-default", "variants-mix", "search-remote", "ingest-mixed"}

// Population sizes. The queries of a workload are a fixed population, a
// function of the corpus alone; -seed decides the order they are sent in
// (and the trips the writer copies). Query cost is heavy-tailed — the
// slowest 5 % of default queries cost ten times the median — so two
// independent draws of a few thousand queries differ by over 10 % in
// their 95th percentile from sampling alone, which would drown the
// changes the gate exists to see. A run sends about one population's
// worth of requests; a closed loop that outruns its list wraps around.
const (
	defaultPopulation = 1200
	variantPopulation = 960 // 160 of each of the six kinds
)

// Build generates the named workload from seed. It is a pure function of
// (d, name, seed, seconds): seconds only sizes ingest-mixed's write list
// (WritesPerSec · seconds requests). search-remote and ingest-mixed send
// search-default's list byte for byte.
func Build(d *Dataset, name string, seed uint64, seconds int) (*Workload, error) {
	gen := newGenerator(d)
	switch name {
	case "search-default":
		return &Workload{Name: name, Topology: TopoMono, Reads: gen.defaults(seed)}, nil
	case "search-remote":
		return &Workload{Name: name, Topology: TopoRemote, Reads: gen.defaults(seed)}, nil
	case "variants-mix":
		return &Workload{Name: name, Topology: TopoMono, Reads: gen.variants(seed)}, nil
	case "ingest-mixed":
		return &Workload{
			Name: name, Topology: TopoIngest,
			Reads:  gen.defaults(seed),
			Writes: gen.writes(seed, WritesPerSec*seconds),
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(Names, ", "))
}

// SHA256 fingerprints a request list — path and body of every request in
// order — so two commits can be shown to have received identical input.
func SHA256(reqs []Request) string {
	h := sha256.New()
	for _, r := range reqs {
		h.Write([]byte(r.Path))
		h.Write([]byte{0})
		h.Write(r.Body)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

type generator struct {
	d       *Dataset
	anchors []uots.VertexID // vertices at least one trip passes
	radius  float64         // cluster radius in km
}

func newGenerator(d *Dataset) *generator {
	g := &generator{d: d}
	for v := 0; v < d.Graph.NumVertices(); v++ {
		if len(d.Store.TrajsAtVertex(uots.VertexID(v))) > 0 {
			g.anchors = append(g.anchors, uots.VertexID(v))
		}
	}
	b := d.Graph.Bounds()
	g.radius = ClusterRadius * math.Hypot(b.Max.X-b.Min.X, b.Max.Y-b.Min.Y)
	return g
}

// stream returns the random stream called name under seed; streams of
// different names are independent.
func stream(seed uint64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// anchorOrder is a permutation of the anchor pool fixed by the corpus.
// Query i of a population is centred on entry i: a population spreads
// over the whole city instead of drawing places with replacement.
func (g *generator) anchorOrder(rng *rand.Rand) []uots.VertexID {
	order := append([]uots.VertexID(nil), g.anchors...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// defaultSearch is the paper's default query around anchor: Places
// places within the cluster radius (the anchor among them) and
// QueryKeywords keywords of one trip that passes the anchor, so the
// textual half of the score is exercised and non-zero.
func (g *generator) defaultSearch(rng *rand.Rand, anchor uots.VertexID) Search {
	return Search{
		VertexIDs: g.cluster(rng, anchor),
		Keywords:  g.keywordsAt(rng, anchor),
		Lambda:    Lambda,
		K:         TopK,
	}
}

func (g *generator) cluster(rng *rand.Rand, anchor uots.VertexID) []int32 {
	gr := g.d.Graph
	c := gr.Point(anchor)
	var near []int32
	for v := 0; v < gr.NumVertices(); v++ {
		p := gr.Point(uots.VertexID(v))
		if uots.VertexID(v) != anchor && math.Hypot(p.X-c.X, p.Y-c.Y) <= g.radius {
			near = append(near, int32(v))
		}
	}
	ids := []int32{int32(anchor)}
	for len(ids) < Places && len(near) > 0 {
		i := rng.IntN(len(near))
		ids = append(ids, near[i])
		near[i] = near[len(near)-1]
		near = near[:len(near)-1]
	}
	return ids
}

func (g *generator) keywordsAt(rng *rand.Rand, anchor uots.VertexID) string {
	passing := g.d.Store.TrajsAtVertex(anchor)
	return g.keywordString(rng, passing[rng.IntN(len(passing))], QueryKeywords)
}

// keywordString joins up to max keywords of trip id, chosen by rng (all
// of them when max <= 0).
func (g *generator) keywordString(rng *rand.Rand, id uots.TrajID, max int) string {
	terms := append(uots.TermSet(nil), g.d.Store.Keywords(id)...)
	if max > 0 && len(terms) > max {
		rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
		terms = terms[:max]
	}
	names := make([]string, 0, len(terms))
	for _, t := range terms {
		if name, ok := g.d.Store.Vocab().Term(t); ok {
			names = append(names, name)
		}
	}
	return strings.Join(names, " ")
}

// defaults is the default-query population in the order seed puts it in.
func (g *generator) defaults(seed uint64) []Request {
	rng := stream(CorpusSeed, "search-default")
	order := g.anchorOrder(rng)
	reqs := make([]Request, defaultPopulation)
	for i := range reqs {
		reqs[i] = searchRequest(KindDefault, g.defaultSearch(rng, order[i%len(order)]))
	}
	stream(seed, "search-default order").Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// variants is the six-kind population, kinds round-robin by position;
// seed reorders the requests of each kind among that kind's positions.
func (g *generator) variants(seed uint64) []Request {
	rng := stream(CorpusSeed, "variants-mix")
	order := g.anchorOrder(rng)
	theta, mu := Theta, DiversifyMu
	reqs := make([]Request, variantPopulation)
	for i := range reqs {
		anchor := order[i%len(order)]
		kind := VariantKinds[i%len(VariantKinds)]
		s := g.defaultSearch(rng, anchor)
		switch kind {
		case KindWindowed:
			s.Window = Window
		case KindOrderAware:
			s.OrderAware = true
		case KindThreshold:
			s.Theta = &theta
		case KindDiversified:
			s.DiversifyMu = &mu
		case KindCitywide:
			// Places uniform over the whole city: no cluster, so the
			// bound never closes early and the search is settle-dominated.
			for j := range s.VertexIDs {
				s.VertexIDs[j] = int32(rng.IntN(g.d.Graph.NumVertices()))
			}
		case KindBatch:
			// BatchSize default queries that all contain the anchor
			// vertex, so the shared-expansion planner has a frontier to share.
			b := Batch{Queries: []Search{s}, Workers: 1}
			for len(b.Queries) < BatchSize {
				b.Queries = append(b.Queries, g.defaultSearch(rng, anchor))
			}
			reqs[i] = Request{Kind: KindBatch, Path: "/batch", Body: mustJSON(b), Searches: b.Queries}
			continue
		}
		reqs[i] = searchRequest(kind, s)
	}
	kinds, perKind := len(VariantKinds), len(reqs)/len(VariantKinds)
	shuffle := stream(seed, "variants-mix order")
	for k := 0; k < kinds; k++ {
		shuffle.Shuffle(perKind, func(i, j int) {
			reqs[i*kinds+k], reqs[j*kinds+k] = reqs[j*kinds+k], reqs[i*kinds+k]
		})
	}
	return reqs
}

// writes builds n POST /trajectories bodies, each carrying seeded copies
// of TrajsPerWrite corpus trips with their keyword strings.
func (g *generator) writes(seed uint64, n int) []Request {
	rng := stream(seed, "ingest-writes")
	st := g.d.Store
	reqs := make([]Request, n)
	for i := range reqs {
		var body Ingest
		for j := 0; j < TrajsPerWrite; j++ {
			id := uots.TrajID(rng.IntN(st.NumTrajectories()))
			src := st.Traj(id)
			t := IngestTrajectory{Keywords: g.keywordString(rng, id, 0)}
			for _, smp := range src.Samples {
				t.Samples = append(t.Samples, IngestSample{Vertex: int32(smp.V), T: smp.T})
			}
			body.Trajectories = append(body.Trajectories, t)
		}
		reqs[i] = Request{Path: "/trajectories", Body: mustJSON(body), Trajs: TrajsPerWrite}
	}
	return reqs
}

func searchRequest(kind Kind, s Search) Request {
	return Request{Kind: kind, Path: "/search", Body: mustJSON(s), Searches: []Search{s}}
}

// mustJSON encodes a body built from plain structs of finite numbers and
// strings, which cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
