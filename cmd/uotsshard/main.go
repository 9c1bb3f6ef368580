// Command uotsshard serves one partition of a dataset written by
// uotsdgen as a remote shard server for uotsserve's -remote-shards
// router (the internal/rpc wire protocol).
//
// Usage:
//
//	uotsshard -data dataset -addr 127.0.0.1:0 -shard 0 -shards 2
//	          [-drain 10s]
//
// The process loads the full dataset, derives partition -shard of
// -shards — a function of the trajectory ID and the shard count, the
// same derivation the router uses, which is the topology contract that
// makes shard-local answers mergeable — and serves that piece's engine
// over HTTP:
//
//	POST /rpc/v1/search      one search, any variant (gob)
//	GET  /rpc/v1/health      shard identity + liveness (gob)
//	GET  /debug/trace/{id}   this shard's span of a sampled request (JSON)
//
// A request the router sampled (the client sent "X-Trace: 1") carries
// its trace ID on the wire; this shard retains its half of the trace
// under that ID, so the same /debug/trace/{id} key works hop by hop
// across the fleet.
//
// The actual listen address is printed to stdout as
// "uotsshard: listening on HOST:PORT" — with -addr :0 that line is how
// scripts learn the kernel-assigned port. On SIGINT/SIGTERM the server
// stops accepting, gives in-flight requests up to -drain, then exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"uots"
	"uots/internal/core"
	"uots/internal/rpc"
	"uots/internal/shard"
)

func main() {
	data := flag.String("data", "dataset", "dataset path prefix (expects <prefix>.graph and <prefix>.trajs)")
	addr := flag.String("addr", "127.0.0.1:0", "listen address (port 0 = kernel-assigned, printed on stdout)")
	shardIdx := flag.Int("shard", 0, "partition index served by this process")
	shards := flag.Int("shards", 1, "total partition count of the topology")
	drain := flag.Duration("drain", 10*time.Second, "grace period for in-flight requests on shutdown")
	flag.Parse()

	gf, err := os.Open(*data + ".graph")
	if err != nil {
		fatal(err)
	}
	g, err := uots.ReadGraph(gf)
	gf.Close()
	if err != nil {
		fatal(err)
	}
	tf, err := os.Open(*data + ".trajs")
	if err != nil {
		fatal(err)
	}
	db, err := uots.ReadStore(tf, g)
	tf.Close()
	if err != nil {
		fatal(err)
	}

	engine, globals, err := shard.BuildShardEngine(db, core.Options{}, shard.HashPartitioner{}, *shards, *shardIdx)
	if err != nil {
		fatal(err)
	}
	ss, err := rpc.NewShardServer(engine, globals, *shardIdx, *shards)
	if err != nil {
		fatal(err)
	}

	mux := http.NewServeMux()
	mux.Handle("/", ss.Handler())
	mux.HandleFunc("GET /debug/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		rec, ok := ss.Traces().Get(id)
		if !ok {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "no trace recorded for id " + id})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"id":      id,
			"shard":   *shardIdx,
			"events":  rec.Events(),
			"dropped": rec.Dropped(),
		})
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Stdout, not the log: scripts parse this line for the actual port.
	fmt.Printf("uotsshard: listening on %s\n", ln.Addr())
	log.Printf("uotsshard: shard %d/%d (%d of %d trajectories) on %s",
		*shardIdx, *shards, len(globals), db.NumTrajectories(), ln.Addr())

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(dctx)
		cancel()
		if err != nil {
			srv.Close() // drain window expired: cancel the stragglers
		}
	}
	log.Printf("uotsshard: shut down cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uotsshard:", err)
	os.Exit(1)
}
