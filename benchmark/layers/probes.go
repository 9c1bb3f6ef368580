package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"uots/benchmark/workload"
	"uots/internal/core"
	"uots/internal/diskstore"
	"uots/internal/index"
	"uots/internal/roadnet"
	"uots/internal/server"
	"uots/internal/shard"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

const (
	probeQueries   = 200     // default queries behind each probe's median
	probeSources   = 64      // full SSSP runs behind roadnet.*
	probeLandmarks = 8       // K of the landmark set and the pruning index
	probeExtend    = 800     // trips added for index.extend_ms
	probeBuffer    = 8 << 20 // disk-store LRU budget, smaller than the data
)

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// runRequest performs r's searches directly on a backend, the way the
// server's handlers dispatch them, and returns the summed work counters.
func runRequest(ctx context.Context, b server.SearchBackend, vocab *textual.Vocab, r workload.Request) (core.SearchStats, error) {
	var st core.SearchStats
	var err error
	if r.Kind == workload.KindBatch {
		queries := make([]core.Query, len(r.Searches))
		for i, s := range r.Searches {
			queries[i] = s.Query(vocab)
		}
		_, bs, err := b.SearchBatch(ctx, queries, core.BatchOptions{Workers: 1, SharedExpansion: true})
		return bs.PerQuery, err
	}
	s := r.Searches[0]
	q := s.Query(vocab)
	switch r.Kind {
	case workload.KindWindowed:
		_, st, err = b.SearchWindowedCtx(ctx, q, core.TimeWindow{From: workload.WindowFromS, To: workload.WindowToS})
	case workload.KindOrderAware:
		_, st, err = b.OrderAwareSearchCtx(ctx, q)
	case workload.KindThreshold:
		_, st, err = b.SearchThresholdCtx(ctx, q, *s.Theta)
	case workload.KindDiversified:
		_, st, err = b.DiversifiedSearchCtx(ctx, q, core.DiversifyOptions{Mu: *s.DiversifyMu})
	default:
		_, st, err = b.SearchCtx(ctx, q)
	}
	return st, err
}

// timeSearches runs reqs one at a time on b and returns each latency and
// the summed work counters.
func timeSearches(ctx context.Context, b server.SearchBackend, vocab *textual.Vocab, reqs []workload.Request) ([]float64, core.SearchStats, error) {
	var total core.SearchStats
	ms := make([]float64, 0, len(reqs))
	for i, r := range reqs {
		t0 := time.Now()
		st, err := runRequest(ctx, b, vocab, r)
		ms = append(ms, msSince(t0))
		if err != nil {
			return nil, total, fmt.Errorf("request %d (%s): %w", i, r.Kind, err)
		}
		total.Add(st)
	}
	return ms, total, nil
}

// probeRoadnet times full single-source shortest-path runs: the settle
// loop and its heap with no trajectory work around them.
func probeRoadnet(g *roadnet.Graph, seed uint64, m metrics) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	sssp := roadnet.NewSSSP(g)
	var busy time.Duration
	settles := 0
	for i := 0; i < probeSources; i++ {
		src := roadnet.VertexID(rng.IntN(g.NumVertices()))
		t0 := time.Now()
		sssp.Run(src)
		busy += time.Since(t0)
		for v := 0; v < g.NumVertices(); v++ {
			if sssp.Settled(roadnet.VertexID(v)) {
				settles++
			}
		}
	}
	m.set("roadnet.sssp_ns_per_settle", float64(busy)/float64(settles))
	m.set("roadnet.settles_per_s", float64(settles)/busy.Seconds())
	t0 := time.Now()
	roadnet.NewLandmarks(g, probeLandmarks, 0)
	m.set("roadnet.landmarks_build_ms", msSince(t0))
}

// probeTextual times the inverted index scoring every document that
// shares a keyword with the query.
func probeTextual(store *trajdb.Store, reqs []workload.Request, m metrics) {
	ix := store.TextIndex()
	var us []float64
	scored := 0
	for _, r := range reqs {
		terms := r.Searches[0].Query(store.Vocab()).Keywords
		t0 := time.Now()
		docs, _ := ix.ScoreAll(terms, textual.Jaccard)
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		scored += len(docs)
	}
	m.set("textual.scoreall_us_p50", p50(us))
	m.set("textual.docs_scored_per_query", float64(scored)/float64(len(reqs)))
}

// probeIndex builds the landmark pruning index, extends it the way
// ingest does, and searches with it. No end-to-end workload turns the
// index on, so nothing gated moves with these.
func probeIndex(ctx context.Context, store *trajdb.Store, reqs []workload.Request, m metrics) error {
	lm := roadnet.NewLandmarks(store.Graph(), probeLandmarks, 0)
	t0 := time.Now()
	idx := index.NewTrajBounds(store, lm)
	m.set("index.build_ms", msSince(t0))

	dyn := trajdb.NewDynamicFromStore(store)
	for i := 0; i < probeExtend; i++ {
		t := store.Traj(trajdb.TrajID(i))
		if _, err := dyn.Add(t.Samples, t.Keywords); err != nil {
			return fmt.Errorf("growing the store for index.extend_ms: %w", err)
		}
	}
	grown, _ := dyn.Snapshot()
	t0 = time.Now()
	idx.Extend(grown)
	m.set("index.extend_ms", msSince(t0))

	eng, err := core.NewEngine(store, core.Options{Index: idx})
	if err != nil {
		return err
	}
	ms, st, err := timeSearches(ctx, eng, store.Vocab(), reqs)
	if err != nil {
		return fmt.Errorf("index probe: %w", err)
	}
	m.set("index.search_ms_p50", p50(ms))
	if considered := st.LandmarkPrunes + st.Candidates; considered > 0 {
		m.set("index.prune_ratio", float64(st.LandmarkPrunes)/float64(considered))
	}
	return nil
}

// probeDiskstore converts the corpus to a disk store in dir, opens it
// warm (sidecar adopted) and cold (sidecar gone, rebuild scan), and
// searches it through a buffer smaller than the data.
func probeDiskstore(ctx context.Context, store *trajdb.Store, reqs []workload.Request, dir string, m metrics) error {
	path := filepath.Join(dir, "world.dsk")
	t0 := time.Now()
	if err := diskstore.Create(path, store); err != nil {
		return err
	}
	m.set("diskstore.create_ms", msSince(t0))
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("diskstore.file_bytes_per_traj", float64(fi.Size())/float64(store.NumTrajectories()))

	t0 = time.Now()
	ds, err := diskstore.Open(path, store.Graph(), probeBuffer)
	if err != nil {
		return err
	}
	m.set("diskstore.open_warm_ms", msSince(t0))
	defer ds.Close()
	if !ds.WarmStart() {
		return fmt.Errorf("disk store did not adopt the sidecar Create just wrote")
	}
	eng, err := core.NewEngine(ds, core.Options{})
	if err != nil {
		return err
	}
	ms, _, err := timeSearches(ctx, eng, ds.Vocab(), reqs)
	if err != nil {
		return fmt.Errorf("diskstore probe: %w", err)
	}
	m.set("diskstore.search_ms_p50", p50(ms))
	if cs := ds.Stats(); cs.Loads > 0 {
		m.set("diskstore.hit_ratio", float64(cs.Hits)/float64(cs.Loads))
	}

	if err := os.Remove(path + ".idx"); err != nil {
		return err
	}
	t0 = time.Now()
	cold, err := diskstore.Open(path, store.Graph(), probeBuffer)
	if err != nil {
		return err
	}
	m.set("diskstore.open_cold_ms", msSince(t0))
	return cold.Close()
}

// probeShard runs reqs on the in-process two-shard executor: scatter and
// merge without the wire. monoSettled is the settles the same requests
// cost the monolithic engine.
func probeShard(ctx context.Context, store *trajdb.Store, reqs []workload.Request, monoSettled int, m metrics) error {
	ex, err := shard.NewExecutor(store, core.Options{}, shard.Config{Shards: partitions})
	if err != nil {
		return err
	}
	defer ex.Close()
	ms, st, err := timeSearches(ctx, ex, store.Vocab(), reqs)
	if err != nil {
		return fmt.Errorf("shard probe: %w", err)
	}
	m.set("shard.exec_ms_p50", p50(ms))
	m.set("shard.cross_prunes_per_query", float64(st.SharedBoundPrunes)/float64(len(reqs)))
	if monoSettled > 0 {
		m.set("shard.settle_amplification", float64(st.SettledVertices)/float64(monoSettled))
	}
	return nil
}
