// Command layers is the traced half of the benchmark: a single-goroutine,
// in-process replay of the first requests of one workload through the
// same stack the real processes serve, assembled from public
// constructors with timing and counting decorators at the existing
// seams, plus direct timed calls into the layers no workload reaches.
//
// It is the one place of the benchmark that imports uots/internal: the
// list of symbols it needs is in ../README.md, so a refactor knows what
// a follow-up benchmark change must re-point.
//
// Spans stay in memory and are written to <out>/trace-<workload>.jsonl
// at exit. The last line of standard output is the result JSON with
// every per-layer metric; a layer the workload does not exercise reads 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"uots/benchmark/workload"
	"uots/internal/core"
	"uots/internal/ingest"
	"uots/internal/trajdb"
)

// perLayer is every metric this program reports, in reporting order.
// BENCHMARK.json lists the same names (TestSpecMatchesProgram).
var perLayer = []struct{ name, unit string }{
	{"bench.trace_overhead_ratio", "ratio"},
	{"server.handler_ms_p50", "ms"},
	{"server.handler_ms_p99", "ms"},
	{"server.self_ms_p50", "ms"},
	{"server.self_share", "ratio"},
	{"server.resp_bytes_mean", "B"},
	{"server.allocs_per_req", "count"},
	{"server.windowed_p50_ms", "ms"},
	{"server.orderaware_p50_ms", "ms"},
	{"server.threshold_p50_ms", "ms"},
	{"server.diversified_p50_ms", "ms"},
	{"server.citywide_p50_ms", "ms"},
	{"server.batch_p50_ms", "ms"},
	{"core.search_ms_p50", "ms"},
	{"core.search_ms_p95", "ms"},
	{"core.settled_per_query", "count"},
	{"core.scan_events_per_query", "count"},
	{"core.visited_per_query", "count"},
	{"core.candidates_per_query", "count"},
	{"core.text_scored_per_query", "count"},
	{"core.probes_per_query", "count"},
	{"core.candidates_per_result", "ratio"},
	{"core.early_term_ratio", "ratio"},
	{"core.allocs_per_query", "count"},
	{"core.bytes_per_query", "B"},
	{"core.batch_ms_per_query", "ms"},
	{"core.batch_saved_settle_ratio", "ratio"},
	{"roadnet.sssp_ns_per_settle", "ns"},
	{"roadnet.settles_per_s", "1/s"},
	{"roadnet.landmarks_build_ms", "ms"},
	{"trajdb.postings_calls_per_query", "count"},
	{"trajdb.postings_ids_per_query", "count"},
	{"trajdb.traj_loads_per_query", "count"},
	{"trajdb.keywords_calls_per_query", "count"},
	{"textual.scoreall_us_p50", "us"},
	{"textual.docs_scored_per_query", "count"},
	{"shard.exec_ms_p50", "ms"},
	{"shard.settle_amplification", "ratio"},
	{"shard.cross_prunes_per_query", "count"},
	{"rpc.call_ms_p50", "ms"},
	{"rpc.shard_handler_ms_p50", "ms"},
	{"rpc.wire_ms_p50", "ms"},
	{"rpc.req_bytes_mean", "B"},
	{"rpc.resp_bytes_mean", "B"},
	{"rpc.attempts_per_call", "ratio"},
	{"ingest.ack_ms_p50", "ms"},
	{"ingest.ack_ms_p95", "ms"},
	{"ingest.engine_refresh_ms_p50", "ms"},
	{"ingest.wal_bytes_per_traj", "B"},
	{"ingest.fsyncs_per_batch", "ratio"},
	{"ingest.trajs_per_commit", "count"},
	{"ingest.replay_ms", "ms"},
	{"ingest.rejected_ratio", "ratio"},
	{"index.build_ms", "ms"},
	{"index.extend_ms", "ms"},
	{"index.prune_ratio", "ratio"},
	{"index.search_ms_p50", "ms"},
	{"diskstore.create_ms", "ms"},
	{"diskstore.open_cold_ms", "ms"},
	{"diskstore.open_warm_ms", "ms"},
	{"diskstore.hit_ratio", "ratio"},
	{"diskstore.search_ms_p50", "ms"},
	{"diskstore.file_bytes_per_traj", "B"},
	{"obs.xtrace_overhead_ratio", "ratio"},
}

// metrics holds the value of every perLayer name; unset names read 0.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// Requests replayed per second of -seconds. A fixed count (not a time
// budget) keeps every per-query count identical from run to run; the
// rates make a replay last about -seconds on the reference host.
var replayPerSec = map[string]int{
	"search-default": 40,
	"variants-mix":   6, // one of each kind
	"search-remote":  20,
	"ingest-mixed":   8, // writes; readsPerWrite reads follow each
}

// readsPerWrite is the e2e run's mix: ~170 reads/s beside 40 writes/s.
const readsPerWrite = 4

func p50(ms []float64) float64 { return workload.Summarize(ms, len(ms), 0).P50 }

// overhead is the total time of the traced pass over that of the
// untraced pass of the same requests. Totals, not medians: the median of
// a mix of six kinds of request moves with which kind sits in the middle.
func overhead(traced, plain []float64) float64 {
	var t, p float64
	for i := range traced {
		t += traced[i]
		p += plain[i]
	}
	return t / p
}

// warmup is how many default requests an undecorated stack serves before
// anything is measured, so the first pass does not pay for page faults
// and heap growth that the passes after it would not.
const warmup = 50

func main() {
	if err := run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) (err error) {
	name := flag.String("workload", "search-default", "workload to replay")
	seed := flag.Uint64("seed", 1, "seed of the request streams")
	seconds := flag.Int("seconds", 15, "sizes the replay: a fixed number of requests per second asked for")
	out := flag.String("out", "benchmark/out", "directory for trace-<workload>.jsonl and scratch files")
	flag.Parse()

	rate, ok := replayPerSec[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	n := rate * *seconds
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(*out, "layers-")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(scratch)) }()

	d, err := workload.Generate()
	if err != nil {
		return err
	}
	w, err := workload.Build(d, *name, *seed, *seconds)
	if err != nil {
		return err
	}
	defaults, err := workload.Build(d, "search-default", *seed, *seconds)
	if err != nil {
		return err
	}
	probes := defaults.Reads[:probeQueries]

	m := metrics{}
	rec := newRecorder()
	r := &replay{store: d.Store, rec: rec, m: m}
	warm, _, _, err := monoStack(d.Store, nil)
	if err != nil {
		return err
	}
	for _, req := range probes[:warmup] {
		serve(warm, req, nil)
	}
	switch w.Topology {
	case workload.TopoMono:
		_, err = r.mono(ctx, w.Reads[:min(n, len(w.Reads))], true)
	case workload.TopoRemote:
		reqs := w.Reads[:min(n, len(w.Reads))]
		// The same requests on the monolithic stack first: core.* beside
		// rpc.* attributes the remote-vs-mono difference to named spans.
		var monoSettled int
		if monoSettled, err = r.mono(ctx, reqs, false); err == nil {
			if err = r.remote(reqs); err == nil {
				err = probeShard(ctx, d.Store, reqs, monoSettled, m)
			}
		}
	case workload.TopoIngest:
		err = r.ingest(w, min(n, len(w.Writes)), scratch)
	}
	if err != nil {
		return err
	}

	probeRoadnet(d.Graph, *seed, m)
	probeTextual(d.Store, probes, m)
	if err := probeIndex(ctx, d.Store, probes, m); err != nil {
		return err
	}
	if err := probeDiskstore(ctx, d.Store, probes, scratch, m); err != nil {
		return err
	}

	self := selfTimes(rec.spans)
	var selfSum, rootSum int64
	for _, s := range rec.spans {
		selfSum += self[s.ID]
		if s.Parent < 0 {
			rootSum += s.dur()
		}
	}
	if selfSum != rootSum {
		return fmt.Errorf("self times sum to %d ns but root spans to %d ns: a span is not nested in its parent", selfSum, rootSum)
	}
	if err := writeJSONL(filepath.Join(*out, "trace-"+*name+".jsonl"), rec.spans); err != nil {
		return err
	}

	res := workload.Result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]workload.Metric{}}
	fmt.Fprintf(os.Stderr, "== %s traced replay: %d requests, %d failed, %d spans, self times sum to the root spans (%.1f ms)\n",
		*name, r.attempted, r.failed, len(rec.spans), float64(rootSum)/1e6)
	for _, pl := range perLayer {
		res.Metrics[pl.name] = workload.Metric{Value: m[pl.name], Unit: pl.unit}
		fmt.Fprintf(os.Stderr, "   %-34s %14.4f %s\n", pl.name, m[pl.name], pl.unit)
	}
	return res.Print(os.Stdout)
}

// replay carries what the three replays share.
type replay struct {
	store             *trajdb.Store
	rec               *recorder
	m                 metrics
	attempted, failed int
}

// pass sends reqs through h one at a time and returns each latency in
// ms, timed around the whole hand-over so traced and untraced passes are
// measured alike. A non-200 counts as failed. With traced set, spans
// carry the request's index. after, when non-nil, runs after each reply.
func (r *replay) pass(h http.Handler, reqs []workload.Request, header http.Header, traced bool, after func(i int, rr *httptest.ResponseRecorder)) []float64 {
	ms := make([]float64, len(reqs))

	for i, req := range reqs {
		if traced {
			r.rec.trace = i
		}
		t0 := time.Now()
		rr := serve(h, req, header)
		ms[i] = msSince(t0)
		r.attempted++
		if rr.Code != http.StatusOK {
			r.failed++
		}
		if after != nil {
			after(i, rr)
		}
	}
	return ms
}

// mallocs runs f and returns the heap objects and bytes it allocated.
func mallocs(f func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// mono replays reqs on the monolithic stack: an undecorated pass (the
// untraced reference and the allocation count), the decorated pass, a
// pass with X-Trace: 1, and the engine alone. With full unset only the
// decorated pass runs and only core.*/trajdb.* are reported. It returns
// the settles the decorated pass cost.
func (r *replay) mono(ctx context.Context, reqs []workload.Request, full bool) (settled int, err error) {
	m := r.m
	traced, be, cs, err := monoStack(r.store, r.rec)
	if err != nil {
		return 0, err
	}
	first := len(r.rec.spans)
	respBytes := 0
	tracedMs := r.pass(traced, reqs, nil, true, func(_ int, rr *httptest.ResponseRecorder) { respBytes += rr.Body.Len() })
	spans := r.rec.spans[first:]

	queries := float64(len(be.searches))
	var sum core.SearchStats
	early := 0
	for _, st := range be.searches {
		sum.Add(st)
		if st.EarlyTerminated {
			early++
		}
	}
	dur := byName(spans, span.dur)
	search := workload.Summarize(dur["core.search"], len(dur["core.search"]), 0)
	m.set("core.search_ms_p50", search.P50)
	m.set("core.search_ms_p95", search.P95)
	m.set("core.settled_per_query", float64(sum.SettledVertices)/queries)
	m.set("core.scan_events_per_query", float64(sum.ScanEvents)/queries)
	m.set("core.visited_per_query", float64(sum.VisitedTrajectories)/queries)
	m.set("core.candidates_per_query", float64(sum.Candidates)/queries)
	m.set("core.text_scored_per_query", float64(sum.TextScored)/queries)
	m.set("core.probes_per_query", float64(sum.Probes)/queries)
	m.set("core.early_term_ratio", float64(early)/queries)
	if be.results > 0 {
		m.set("core.candidates_per_result", float64(sum.Candidates)/float64(be.results))
	}
	var batchMs float64
	var batchQueries int
	var frontier, served uint64
	for _, ms := range dur["core.batch"] {
		batchMs += ms
	}
	for _, bs := range be.batches {
		batchQueries += bs.Queries
		frontier += bs.FrontierSettles
		served += bs.ServedSettles
	}
	if batchQueries > 0 {
		m.set("core.batch_ms_per_query", batchMs/float64(batchQueries))
	}
	if served > 0 {
		m.set("core.batch_saved_settle_ratio", 1-float64(frontier)/float64(served))
	}
	m.set("trajdb.postings_calls_per_query", float64(cs.postingsCalls)/queries)
	m.set("trajdb.postings_ids_per_query", float64(cs.postingsIDs)/queries)
	m.set("trajdb.traj_loads_per_query", float64(cs.trajLoads)/queries)
	m.set("trajdb.keywords_calls_per_query", float64(cs.keywordsCalls)/queries)
	if !full {
		return sum.SettledVertices, nil
	}

	plain, _, _, err := monoStack(r.store, nil)
	if err != nil {
		return 0, err
	}
	var plainMs []float64
	objects, _ := mallocs(func() { plainMs = r.pass(plain, reqs, nil, false, nil) })
	m.set("server.allocs_per_req", objects/float64(len(reqs)))
	m.set("bench.trace_overhead_ratio", overhead(tracedMs, plainMs))
	few := len(reqs) / 4
	xMs := r.pass(plain, reqs[:few], http.Header{"X-Trace": {"1"}}, false, nil)
	m.set("obs.xtrace_overhead_ratio", overhead(xMs, plainMs[:few]))

	r.serverMetrics(spans, reqs, tracedMs, respBytes)

	eng, err := core.NewEngine(r.store, core.Options{})
	if err != nil {
		return 0, err
	}
	var engErr error
	objects, bytes := mallocs(func() { _, _, engErr = timeSearches(ctx, eng, r.store.Vocab(), reqs) })
	if engErr != nil {
		return 0, engErr
	}
	m.set("core.allocs_per_query", objects/queries)
	m.set("core.bytes_per_query", bytes/queries)
	return sum.SettledVertices, nil
}

// serverMetrics reports the handler's spans of one decorated pass and
// the per-kind latencies of its requests.
func (r *replay) serverMetrics(spans []span, reqs []workload.Request, ms []float64, respBytes int) {
	m := r.m
	self := selfTimes(r.rec.spans)
	handler := byName(spans, span.dur)["server.handler"]
	handlerSelf := byName(spans, func(s span) int64 { return self[s.ID] })["server.handler"]
	var total, totalSelf float64
	for i := range handler {
		total += handler[i]
		totalSelf += handlerSelf[i]
	}
	m.set("server.self_share", totalSelf/total)
	m.set("server.self_ms_p50", p50(handlerSelf))
	hs := workload.Summarize(handler, len(handler), 0)
	m.set("server.handler_ms_p50", hs.P50)
	m.set("server.handler_ms_p99", hs.P99)
	m.set("server.resp_bytes_mean", float64(respBytes)/float64(len(reqs)))
	byKind := map[workload.Kind][]float64{}
	for i, req := range reqs {
		byKind[req.Kind] = append(byKind[req.Kind], ms[i])
	}
	for _, k := range workload.VariantKinds {
		if len(byKind[k]) > 0 {
			m.set("server."+string(k)+"_p50_ms", p50(byKind[k]))
		}
	}
}

// remote replays reqs on the remote stack, undecorated and decorated.
// Both partitions answer every call at once, so their handler intervals
// overlap; the slowest one is what the call waits for and becomes the
// call span's child, which leaves encode + loopback + decode + merge as
// the call's self time (rpc.wire_ms).
func (r *replay) remote(reqs []workload.Request) error {
	m := r.m
	plain, err := remoteStack(r.store, nil)
	if err != nil {
		return err
	}
	plainMs := r.pass(plain.handler, reqs, nil, false, nil)
	plain.close()

	rig, err := remoteStack(r.store, r.rec)
	if err != nil {
		return err
	}
	defer rig.close()
	first := len(r.rec.spans)
	var calls, reqBytes, respBytes, bodyBytes int
	tracedMs := r.pass(rig.handler, reqs, nil, true, func(i int, rr *httptest.ResponseRecorder) {
		bodyBytes += rr.Body.Len()
		got := rig.tap.take()
		if len(got) == 0 {
			return
		}
		slowest := got[0]
		for _, c := range got {
			calls++
			reqBytes += c.reqBytes
			respBytes += c.respBytes
			if c.end-c.start > slowest.end-slowest.start {
				slowest = c
			}
		}
		for id := len(r.rec.spans) - 1; id >= first; id-- {
			if s := r.rec.spans[id]; s.Name == "rpc.call" && s.Trace == i {
				r.rec.add("rpc.shard_handler", id, slowest.start, slowest.end)
				break
			}
		}
	})
	spans := r.rec.spans[first:]
	self := selfTimes(r.rec.spans)
	dur := byName(spans, span.dur)
	m.set("rpc.call_ms_p50", p50(dur["rpc.call"]))
	m.set("rpc.shard_handler_ms_p50", p50(dur["rpc.shard_handler"]))
	m.set("rpc.wire_ms_p50", p50(byName(spans, func(s span) int64 { return self[s.ID] })["rpc.call"]))
	if calls > 0 {
		m.set("rpc.req_bytes_mean", float64(reqBytes)/float64(calls))
		m.set("rpc.resp_bytes_mean", float64(respBytes)/float64(calls))
		m.set("rpc.attempts_per_call", float64(calls)/float64(partitions*len(dur["rpc.call"])))
	}
	m.set("bench.trace_overhead_ratio", overhead(tracedMs, plainMs))
	r.serverMetrics(spans, reqs, tracedMs, bodyBytes)
	return nil
}

// ingest replays writes writes of w, each followed by readsPerWrite
// reads, on the live-ingest stack over a fresh WAL — undecorated, then
// decorated — and then re-opens the service over the WAL it wrote.
func (r *replay) ingest(w *workload.Workload, writes int, dir string) error {
	m := r.m
	var seq []workload.Request
	for i := 0; i < writes; i++ {
		seq = append(seq, w.Writes[i])
		seq = append(seq, w.Reads[i*readsPerWrite:(i+1)*readsPerWrite]...)
	}
	isWrite := func(i int) bool { return i%(readsPerWrite+1) == 0 }

	// Both passes refresh the engine right after every commit, so the
	// reads that follow cost the same in both; only the decorated pass
	// times it.
	run := func(walPath string, traced bool) (ms []float64, svc *ingest.Service, err error) {
		var rec *recorder
		if traced {
			rec = r.rec
		}
		h, svc, err := ingestStack(r.store, walPath, rec)
		if err != nil {
			return nil, nil, err
		}
		var refreshErr error
		ms = r.pass(h, seq, nil, traced, func(i int, _ *httptest.ResponseRecorder) {
			if !isWrite(i) {
				return
			}
			if traced {
				rec.begin("ingest.engine_refresh")
				defer rec.end()
			}
			if _, _, err := svc.Engine(); err != nil {
				refreshErr = err
			}
		})
		return ms, svc, refreshErr
	}

	plainMs, svc, err := run(filepath.Join(dir, "plain.wal"), false)
	if svc != nil {
		err = errors.Join(err, svc.Close())
	}
	if err != nil {
		return err
	}
	walPath := filepath.Join(dir, "traced.wal")
	first := len(r.rec.spans)
	tracedMs, svc, err := run(walPath, true)
	if err != nil {
		if svc != nil {
			err = errors.Join(err, svc.Close())
		}
		return err
	}
	st := svc.Stats()
	if err := svc.Close(); err != nil {
		return err
	}

	var acks, reads, plainReads []float64
	for i, ms := range tracedMs {
		if isWrite(i) {
			acks = append(acks, ms)
		} else {
			reads = append(reads, ms)
			plainReads = append(plainReads, plainMs[i])
		}
	}
	ack := workload.Summarize(acks, len(acks), 0)
	m.set("ingest.ack_ms_p50", ack.P50)
	m.set("ingest.ack_ms_p95", ack.P95)
	m.set("bench.trace_overhead_ratio", overhead(reads, plainReads))
	spans := r.rec.spans[first:]
	m.set("ingest.engine_refresh_ms_p50", p50(byName(spans, span.dur)["ingest.engine_refresh"]))
	if st.Committed > 0 && st.Batches > 0 {
		m.set("ingest.wal_bytes_per_traj", float64(st.WALBytes)/float64(st.Committed))
		m.set("ingest.fsyncs_per_batch", float64(st.WALFsyncs)/float64(st.Batches))
		m.set("ingest.trajs_per_commit", float64(st.Committed)/float64(st.Batches))
	}
	rejected := st.RejectedInvalid + st.RejectedBacklog + st.RejectedClosed
	m.set("ingest.rejected_ratio", float64(rejected)/float64(st.Accepted+rejected))
	r.serverMetrics(spans, seq, tracedMs, 0)

	t0 := time.Now()
	again, err := ingest.Open(trajdb.NewDynamicFromStore(r.store), ingest.Config{WALPath: walPath, Fsync: ingest.FsyncAlways})
	if err != nil {
		return fmt.Errorf("re-opening over the WAL just written: %w", err)
	}
	m.set("ingest.replay_ms", msSince(t0))
	if got := again.Recovery().Trajs; uint64(got) != st.Committed {
		r.failed++
		fmt.Fprintf(os.Stderr, "layers: replay recovered %d trajectories, %d were committed\n", got, st.Committed)
	}
	return again.Close()
}
