// Command uotsserve exposes a dataset written by uotsdgen as a JSON HTTP
// search API.
//
// Usage:
//
//	uotsserve -data dataset -addr :8080 [-disk dataset.trajs -cache 67108864]
//	          [-timeout 10s -max-inflight 64 -max-body 8388608 -drain 10s]
//	          [-debug-addr 127.0.0.1:6060 -trace-depth 64 -log-requests]
//	          [-slow-query-ms 250 -slow-query-depth 32]
//	          [-shards 4]
//	          [-remote-shards 'h1:p,h2:p;h3:p,h4:p' -rpc-timeout 2s -rpc-retries 3
//	           -probe-interval 5s -rpc-partial degrade]
//	          [-ingest -wal-dir walblocks -fsync always]
//
// Endpoints:
//
//	GET  /healthz             liveness
//	GET  /stats               dataset shape + serving and search counters
//	GET  /metrics             Prometheus text exposition
//	GET  /debug/trace/{id}    replay of a traced request's search events
//	GET  /debug/slow          slow-query flight recorder (needs -slow-query-ms)
//	POST /search              {"points":[[x,y],...], "keywords":"...", "lambda":0.5, "k":5}
//	POST /batch               {"queries":[<search bodies>...], "workers":4}
//	GET  /trajectory/{id}     full trajectory record
//	POST /trajectories        live write path (needs -ingest)
//	GET  /ingest/stats        write-path counters (needs -ingest)
//
// Search requests run under the -timeout deadline (503 on expiry),
// concurrency beyond -max-inflight is shed with 429, and bodies beyond
// -max-body are rejected with 413. On SIGINT/SIGTERM the server stops
// accepting connections, gives in-flight requests up to -drain to finish,
// then exits 0.
//
// -disk FILE serves trajectory records from FILE through a -cache byte
// LRU buffer instead of loading them: FILE is any store file, including
// <data>.trajs itself (uotsdgen, uots.WriteStore and uots.CreateDiskStore
// all write that one format). With the index sidecar FILE.idx that
// uotsdgen and CreateDiskStore leave beside it the boot is a warm start;
// without one, or with one written for other records, the records are
// scanned once. The boot log says which.
//
// -debug-addr starts a second listener (keep it private) carrying
// net/http/pprof under /debug/pprof/ and a /metrics mirror, so profiling
// traffic never competes with the serving listener. Sending "X-Trace: 1"
// with a search records its expansion events for /debug/trace/{id}; on
// the remote-shards topology the replay is a cross-node tree — every
// RPC attempt and retry plus each shard server's own span,
// grouped per partition with wall-clock attribution.
//
// -slow-query-ms N > 0 turns on the always-on slow-query flight
// recorder: every /search and /batch request runs traced (no header
// needed), and requests taking at least N milliseconds keep their spans
// in a ring of the most recent -slow-query-depth captures, served by
// GET /debug/slow.
//
// -shards N > 1 serves the default search algorithm from a sharded
// scatter-gather engine (internal/shard): the store is partitioned N
// ways (by a hash of the trajectory ID) and every query fans out over the
// shards, with per-shard work visible as uots_shard_* series on
// /metrics. The exhaustive/textfirst baselines keep running on the
// monolithic engine.
//
// -remote-shards routes the default search to remote uotsshard
// processes instead: "hostA:1,hostA2:1;hostB:2,hostB2:2" lists one
// replica group per partition (';' separates partitions in partition
// order, ',' separates that partition's interchangeable replicas; a
// bare host:port gets http://). Every node must serve the same dataset
// (partition count = group count; the layout is a function of the
// trajectory ID and that count alone, so nodes cannot disagree on it).
// Before it listens the router probes every replica once and exits 1 if
// a reachable one reports another partition index or count than its
// place in the list; the health prober keeps checking, and a replica
// that changes identity is refused, not merged. (A shard serving another
// dataset reports the same identity and is not detected.)
// Per-attempt deadlines (-rpc-timeout), bounded retries (-rpc-retries)
// with failover to a sibling replica, and health probes
// (-probe-interval) guard the wire; -rpc-partial picks whether a dead
// partition fails queries ("fail") or serves degraded answers from the
// survivors ("degrade"), flagged in traces and uots_shard_* metrics.
// uots_rpc_* series on /metrics account the transport. Mutually
// exclusive with -shards.
//
// -ingest turns on the live write path: the dataset becomes the boot
// snapshot of a mutable store, POST /trajectories appends through a
// write-ahead log in -wal-dir (replayed on boot, so a crash loses
// nothing that was acknowledged), and every read pins an immutable MVCC
// snapshot so ingest never blocks or tears a search. -fsync picks the
// durability point: "always" (fsync every group commit, the default),
// "interval" (time-based), or "none" (page cache only). On shutdown the
// commit queue is drained and the WAL synced after the HTTP listener
// stops. Mutually exclusive with -disk, -shards, and -remote-shards;
// uots_ingest_* series on /metrics account the write path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"uots"
	"uots/internal/core"
	"uots/internal/diskstore"
	"uots/internal/ingest"
	"uots/internal/obs"
	"uots/internal/rpc"
	"uots/internal/server"
	"uots/internal/shard"
	"uots/internal/trajdb"
)

func main() {
	data := flag.String("data", "dataset", "dataset path prefix (expects <prefix>.graph and <prefix>.trajs)")
	addr := flag.String("addr", ":8080", "listen address")
	disk := flag.String("disk", "", "serve from a disk-resident store file instead of loading trajectories into memory")
	cache := flag.Int("cache", 0, "disk-store LRU buffer budget in bytes (0 = 64 MiB default)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request search deadline (0 disables; expiry answers 503)")
	maxInflight := flag.Int("max-inflight", 64, "max concurrent search weight before shedding with 429 (0 = unlimited)")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "max request body bytes (oversized bodies answer 413)")
	drain := flag.Duration("drain", 10*time.Second, "grace period for in-flight requests on shutdown")
	debugAddr := flag.String("debug-addr", "", "private listener for /debug/pprof/ and a /metrics mirror (empty = disabled)")
	traceDepth := flag.Int("trace-depth", 0, "recent traced requests kept for /debug/trace (0 = default)")
	slowQueryMS := flag.Float64("slow-query-ms", 0, "capture /search and /batch requests at or above this many milliseconds for /debug/slow (0 disables)")
	slowQueryDepth := flag.Int("slow-query-depth", 0, "slow queries retained by the flight recorder (0 = default)")
	logRequests := flag.Bool("log-requests", false, "log one line per request, tagged with its request ID")
	shards := flag.Int("shards", 1, "serve the default search from this many store shards (1 = monolithic)")
	remoteShards := flag.String("remote-shards", "", "route the default search to remote uotsshard replica groups: 'a,b;c,d' (';' partitions, ',' replicas)")
	rpcTimeout := flag.Duration("rpc-timeout", 2*time.Second, "per-attempt deadline for remote shard calls (0 = caller deadline only)")
	rpcRetries := flag.Int("rpc-retries", 3, "total attempts per remote shard call before the partition counts as faulted")
	probeInterval := flag.Duration("probe-interval", 5*time.Second, "background health-probe period for remote replicas (0 disables)")
	rpcPartial := flag.String("rpc-partial", "fail", "dead remote partition policy: fail (query errors) or degrade (serve survivors)")
	ingestMode := flag.Bool("ingest", false, "enable the live write path (POST /trajectories) backed by a write-ahead log")
	walDir := flag.String("wal-dir", "", "directory holding the ingest WAL (required with -ingest; replayed on boot)")
	fsyncPolicy := flag.String("fsync", "always", "ingest WAL durability point: always, interval, or none")
	flag.Parse()

	// Out-of-range RPC values are refused, not reinterpreted.
	if *rpcRetries < 1 {
		fatal(fmt.Errorf("-rpc-retries %d: need at least 1 attempt", *rpcRetries))
	}
	if *rpcTimeout < 0 {
		fatal(fmt.Errorf("-rpc-timeout %s: must not be negative", *rpcTimeout))
	}
	if *probeInterval < 0 {
		fatal(fmt.Errorf("-probe-interval %s: must not be negative", *probeInterval))
	}
	if *ingestMode {
		if *disk != "" || *shards > 1 || *remoteShards != "" {
			fatal(errors.New("-ingest is mutually exclusive with -disk, -shards, and -remote-shards"))
		}
		if *walDir == "" {
			fatal(errors.New("-ingest requires -wal-dir"))
		}
	}

	gf, err := os.Open(*data + ".graph")
	if err != nil {
		fatal(err)
	}
	g, err := uots.ReadGraph(gf)
	gf.Close()
	if err != nil {
		fatal(err)
	}

	var store core.TrajStore
	var vocab *uots.Vocab
	var memStore *trajdb.Store // in-memory dataset, the ingest boot snapshot
	if *disk != "" {
		ds, err := diskstore.Open(*disk, g, *cache)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		store, vocab = ds, ds.Vocab()
		start := "cold start: no usable index sidecar, records scanned"
		if ds.WarmStart() {
			start = "warm start from the index sidecar"
		}
		log.Printf("serving disk-resident store %s (buffer %d bytes, %s)", *disk, ds.CacheBytes(), start)
	} else {
		tf, err := os.Open(*data + ".trajs")
		if err != nil {
			fatal(err)
		}
		db, err := uots.ReadStore(tf, g)
		tf.Close()
		if err != nil {
			fatal(err)
		}
		store, vocab = db, db.Vocab()
		memStore = db
	}

	// One registry serves every mode: the HTTP instruments, the
	// uots_index_* counters with the disk store's open backfilled here
	// (sidecar warm start vs rebuild scan), and whichever of the
	// uots_shard_*, uots_rpc_* and uots_ingest_* families the mode adds.
	reg := obs.NewRegistry()
	indexMetrics := obs.NewIndexMetrics(reg)
	if ds, ok := store.(*diskstore.Store); ok {
		indexMetrics.RecordOpen(ds.WarmStart())
	}

	// In live-ingest mode engines are resolved per request from the
	// service's MVCC snapshot cache; the fixed boot engine stays nil.
	var engine *core.Engine
	if !*ingestMode {
		engine, err = core.NewEngine(store, core.Options{})
		if err != nil {
			fatal(err)
		}
	}
	cfg := server.Config{
		Metrics:            reg,
		Timeout:            *timeout,
		MaxInFlight:        *maxInflight,
		MaxBodyBytes:       *maxBody,
		TraceDepth:         *traceDepth,
		SlowQueryThreshold: time.Duration(*slowQueryMS * float64(time.Millisecond)),
		SlowQueryDepth:     *slowQueryDepth,
	}
	if *logRequests {
		cfg.Logger = log.Default()
	}
	if *remoteShards != "" && *shards > 1 {
		fatal(errors.New("-remote-shards and -shards are mutually exclusive"))
	}
	if *remoteShards != "" {
		var partial shard.PartialPolicy
		switch *rpcPartial {
		case "fail":
			partial = shard.PartialFail
		case "degrade":
			partial = shard.PartialDegrade
		default:
			fatal(fmt.Errorf("unknown -rpc-partial %q (want fail or degrade)", *rpcPartial))
		}
		m := rpc.NewMetrics(reg)
		gcfg := rpc.GroupConfig{
			CallTimeout:   *rpcTimeout,
			MaxAttempts:   *rpcRetries,
			ProbeInterval: *probeInterval,
		}
		var groups []*rpc.Group
		for i, partSpec := range strings.Split(*remoteShards, ";") {
			var bases []string
			for _, b := range strings.Split(partSpec, ",") {
				b = strings.TrimSpace(b)
				if b == "" {
					continue
				}
				if !strings.Contains(b, "://") {
					b = "http://" + b
				}
				bases = append(bases, b)
			}
			g, err := rpc.NewGroup(bases, gcfg, m)
			if err != nil {
				fatal(fmt.Errorf("remote partition %d: %w", i, err))
			}
			groups = append(groups, g)
		}
		remote, err := shard.NewRemoteExecutor(groups, shard.RemoteConfig{
			Global:  engine,
			Partial: partial,
			Metrics: reg,
		})
		if err != nil {
			fatal(err)
		}
		defer remote.Close()
		// A replica that answers for another partition (one address listed
		// twice, a shard started with another -shard/-shards, the groups in
		// the wrong order) would be merged into a 200 all the same — with
		// duplicated and missing trajectories, or at best under the wrong
		// partition's labels — so refuse to start on one. Unreachable
		// replicas are the retry ladder's business, as before.
		for i, g := range groups {
			if err := g.ProbeAll(); err != nil {
				fatal(fmt.Errorf("remote partition %d is mis-wired: %w", i, err))
			}
		}
		cfg.Searcher = remote
		log.Printf("uotsserve: remote search over %d partitions (%s; retries=%d timeout=%s probe=%s)",
			len(groups), partial, *rpcRetries, *rpcTimeout, *probeInterval)
	}
	if *shards > 1 {
		sharded, err := shard.NewExecutor(store, core.Options{}, shard.Config{Shards: *shards, Metrics: reg})
		if err != nil {
			fatal(err)
		}
		defer sharded.Close()
		cfg.Searcher = sharded
		log.Printf("uotsserve: sharded search over %d shards", sharded.NumShards())
	}
	var live *ingest.Service
	if *ingestMode {
		pol, err := ingest.ParseFsyncPolicy(*fsyncPolicy)
		if err != nil {
			fatal(err)
		}
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			fatal(err)
		}
		walPath := filepath.Join(*walDir, "ingest.wal")
		dyn := trajdb.NewDynamicFromStore(memStore)
		svc, err := ingest.Open(dyn, ingest.Config{
			WALPath: walPath,
			Fsync:   pol,
			Metrics: obs.NewIngestMetrics(reg),
		})
		if err != nil {
			fatal(err)
		}
		live = svc
		cfg.Live = svc
		rec := svc.Recovery()
		log.Printf("uotsserve: live ingest (wal=%s fsync=%s): replayed %d records / %d trajectories (%d truncated tail bytes), %d live",
			walPath, pol, rec.Records, rec.Trajs, rec.TruncatedBytes, dyn.Len())
	}
	srv := server.NewWithConfig(engine, vocab, nil, cfg)
	log.Printf("uotsserve: %d vertices, %d trajectories, listening on %s (timeout=%s max-inflight=%d)",
		g.NumVertices(), store.NumTrajectories(), *addr, *timeout, *maxInflight)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		go serveDebug(ctx, *debugAddr, srv)
	}
	if err := srv.Serve(ctx, *addr, *drain); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	if live != nil {
		// The HTTP listener is down; drain queued commits and sync the
		// WAL so nothing acknowledged rides only in memory.
		if err := live.Close(); err != nil {
			log.Printf("uotsserve: ingest close: %v", err)
		} else {
			log.Printf("uotsserve: ingest drained, WAL synced")
		}
	}
	log.Printf("uotsserve: shut down cleanly")
}

// serveDebug runs the private observability listener: pprof profiling
// endpoints and a /metrics mirror sharing the serving registry. It uses a
// fresh mux — importing net/http/pprof only for its handler funcs keeps
// the profiling routes off http.DefaultServeMux and off the public
// listener. The listener dies with ctx; a failed debug listener is logged
// but never takes the serving process down.
func serveDebug(ctx context.Context, addr string, srv *server.Server) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", srv.Metrics().Handler())
	dbg := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		<-ctx.Done()
		dbg.Close()
	}()
	log.Printf("uotsserve: debug listener (pprof, metrics) on %s", addr)
	if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("uotsserve: debug listener failed: %v", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uotsserve:", err)
	os.Exit(1)
}
