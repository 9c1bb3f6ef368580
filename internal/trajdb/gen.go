package trajdb

import (
	"fmt"
	"math"
	"math/rand/v2"

	"uots/internal/geo"
	"uots/internal/roadnet"
	"uots/internal/textual"
)

// GenOptions parameterizes Generate.
type GenOptions struct {
	Count       int                     // number of trajectories
	MeanSamples int                     // target mean samples per trajectory (default 72, the BRN figure)
	Vocab       *textual.SyntheticVocab // keyword universe; nil disables keywords
	KeywordsMin int                     // keywords per trip, uniform in [Min, Max] (defaults 3..8)
	KeywordsMax int
	TopicFocus  float64 // probability a keyword comes from the destination's topic (default 0.8)
	MinSpeedKmh float64 // per-trip speed drawn uniformly from [Min, Max] (defaults 20..50)
	MaxSpeedKmh float64
	Seed        uint64
}

func (o *GenOptions) applyDefaults() {
	if o.MeanSamples <= 1 {
		o.MeanSamples = 72
	}
	if o.KeywordsMin <= 0 {
		o.KeywordsMin = 3
	}
	if o.KeywordsMax < o.KeywordsMin {
		o.KeywordsMax = o.KeywordsMin + 5
	}
	if o.TopicFocus <= 0 || o.TopicFocus > 1 {
		o.TopicFocus = 0.8
	}
	if o.MinSpeedKmh <= 0 {
		o.MinSpeedKmh = 20
	}
	if o.MaxSpeedKmh < o.MinSpeedKmh {
		o.MaxSpeedKmh = o.MinSpeedKmh + 30
	}
}

// Generate synthesizes a trajectory corpus on g. Trips start at uniformly
// random vertices, walk toward a random destination point (biasedWalk),
// and carry keywords drawn mostly from the topic of the region where they
// end, giving the corpus the spatial–textual correlation that makes the
// preference parameter λ meaningful. Timestamps follow per-trip speeds
// over true edge lengths, with departure times spread over the day.
func Generate(g *roadnet.Graph, opts GenOptions) (*Store, error) {
	if opts.Count < 0 {
		return nil, fmt.Errorf("trajdb: negative trajectory count %d", opts.Count)
	}
	opts.applyDefaults()
	rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed^0xa0761d6478bd642f))

	var vocab *textual.Vocab
	if opts.Vocab != nil {
		vocab = opts.Vocab.Vocab
	}
	b := NewBuilder(g, vocab)

	topics := 1
	if opts.Vocab != nil {
		topics = opts.Vocab.NumTopics()
	}
	regions := NewRegionTopics(g.Bounds(), topics)

	n := g.NumVertices()
	for i := 0; i < opts.Count; i++ {
		start := roadnet.VertexID(rng.IntN(n))
		length := sampleLength(opts.MeanSamples, rng)
		path := biasedWalk(g, start, length, rng)
		samples := timestampPath(g, path, opts, rng)
		var kws textual.TermSet
		if opts.Vocab != nil {
			dest := g.Point(path[len(path)-1])
			topic := regions.TopicOf(dest)
			count := opts.KeywordsMin + rng.IntN(opts.KeywordsMax-opts.KeywordsMin+1)
			kws = opts.Vocab.DrawTermSet(topic, count, opts.TopicFocus, rng)
		}
		if _, err := b.Add(samples, kws); err != nil {
			return nil, fmt.Errorf("trajdb: generating trajectory %d: %w", i, err)
		}
	}
	return b.Freeze(), nil
}

// sampleLength draws a trip length (in samples) around mean: uniform in
// [mean/2, 3·mean/2], min 2.
func sampleLength(mean int, rng *rand.Rand) int {
	lo := mean / 2
	if lo < 2 {
		lo = 2
	}
	hi := mean + mean/2
	if hi <= lo {
		return lo
	}
	return lo + rng.IntN(hi-lo+1)
}

// biasedWalk walks from start toward a random destination point: with
// probability 0.85 it moves to the neighbour closest (in the plane) to the
// destination, otherwise to a uniformly random neighbour; it avoids
// immediately backtracking unless at a dead end.
func biasedWalk(g *roadnet.Graph, start roadnet.VertexID, steps int, rng *rand.Rand) []roadnet.VertexID {
	bounds := g.Bounds()
	dest := geo.Point{
		X: bounds.Min.X + rng.Float64()*bounds.Width(),
		Y: bounds.Min.Y + rng.Float64()*bounds.Height(),
	}
	path := make([]roadnet.VertexID, 1, steps)
	path[0] = start
	prev := roadnet.VertexID(-1)
	cur := start
	for len(path) < steps {
		to, _ := g.Neighbors(cur)
		if len(to) == 0 {
			break
		}
		next := roadnet.VertexID(-1)
		if rng.Float64() < 0.85 {
			bestD := math.Inf(1)
			for _, t := range to {
				tv := roadnet.VertexID(t)
				if tv == prev && len(to) > 1 {
					continue
				}
				if d := g.Point(tv).DistSq(dest); d < bestD {
					bestD = d
					next = tv
				}
			}
		} else {
			for tries := 0; tries < 4; tries++ {
				cand := roadnet.VertexID(to[rng.IntN(len(to))])
				if cand != prev || len(to) == 1 {
					next = cand
					break
				}
			}
		}
		if next < 0 {
			next = roadnet.VertexID(to[rng.IntN(len(to))])
		}
		prev, cur = cur, next
		path = append(path, cur)
		// Arrived near the destination: end the trip.
		if g.Point(cur).Dist(dest) < 0.05 {
			break
		}
	}
	return path
}

// timestampPath assigns a departure time and per-sample timestamps using
// true edge lengths and a per-trip speed.
func timestampPath(g *roadnet.Graph, path []roadnet.VertexID, opts GenOptions, rng *rand.Rand) []Sample {
	speed := opts.MinSpeedKmh + rng.Float64()*(opts.MaxSpeedKmh-opts.MinSpeedKmh)
	kmPerSec := speed / 3600.0
	// Depart between 05:00 and 22:00 so trips stay within the day.
	start := 5*3600 + rng.Float64()*17*3600
	samples := make([]Sample, len(path))
	t := start
	samples[0] = Sample{V: path[0], T: t}
	for i := 1; i < len(path); i++ {
		w, _ := g.EdgeWeight(path[i-1], path[i]) // consecutive walk vertices are adjacent
		t += w / kmPerSec
		if t >= SecondsPerDay {
			t = SecondsPerDay - 1e-3 // clamp: trips must stay within the day
		}
		samples[i] = Sample{V: path[i], T: t}
	}
	return samples
}

// RegionTopics partitions the plane into a √t×√t grid of regions and
// assigns each region a topic, so that a location determines a keyword
// topic. The trajectory generator uses it for trip keywords and the
// experiment harness uses the same mapping to draw query keywords
// correlated with query locations.
type RegionTopics struct {
	bounds geo.Rect
	side   int
	topics int
}

// NewRegionTopics returns a region→topic mapping over bounds.
func NewRegionTopics(bounds geo.Rect, topics int) RegionTopics {
	side := int(math.Ceil(math.Sqrt(float64(topics))))
	if side < 1 {
		side = 1
	}
	return RegionTopics{bounds: bounds, side: side, topics: topics}
}

// TopicOf returns the topic of the region containing p.
func (r RegionTopics) TopicOf(p geo.Point) int {
	if r.topics <= 1 {
		return 0
	}
	w, h := r.bounds.Width(), r.bounds.Height()
	if w <= 0 || h <= 0 {
		return 0
	}
	cx := int(float64(r.side) * (p.X - r.bounds.Min.X) / w)
	cy := int(float64(r.side) * (p.Y - r.bounds.Min.Y) / h)
	if cx >= r.side {
		cx = r.side - 1
	}
	if cy >= r.side {
		cy = r.side - 1
	}
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	return (cy*r.side + cx) % r.topics
}
