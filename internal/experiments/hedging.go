package experiments

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"uots/internal/core"
	"uots/internal/obs"
	"uots/internal/rpc"
	"uots/internal/shard"
)

// hedgeSlowDelay is the latency injected into one replica of partition
// 0, standing in for a GC pause / noisy neighbour; hedgeFireDelay is
// how long the router waits before duplicating the call on the other
// replica. The experiment's claim is that the hedged tail tracks
// hedgeFireDelay + a fast attempt instead of hedgeSlowDelay.
const (
	hedgeSlowDelay = 25 * time.Millisecond
	hedgeFireDelay = 5 * time.Millisecond
)

// Hedging reproduces the F12 tail-latency experiment: the distributed
// search path (real HTTP servers on the loopback, 2 partitions × 2
// replicas) with one deterministically slow replica, measured with
// hedged requests disabled and enabled. Unlike the work-counter
// experiments this one is pure wall clock — the quantity hedging buys
// is time, not work (it strictly adds duplicate attempts).
func Hedging(ctx context.Context, w io.Writer, p Profile) error {
	ds, err := BuildCached(p.BRNSpec(0))
	if err != nil {
		return err
	}
	const partitions = 2
	// Every replica of a partition serves the same shard engine; replica
	// 0 of partition 0 answers searches hedgeSlowDelay late.
	var servers [partitions][2]*httptest.Server
	for pi := 0; pi < partitions; pi++ {
		eng, globals, err := shard.BuildShardEngine(ds.Store, core.Options{}, shard.HashPartitioner{}, partitions, pi)
		if err != nil {
			return err
		}
		ss, err := rpc.NewShardServer(eng, globals, pi, partitions)
		if err != nil {
			return err
		}
		for ri := 0; ri < 2; ri++ {
			h := http.Handler(ss.Handler())
			if pi == 0 && ri == 0 {
				inner := h
				h = http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
					if req.URL.Path == rpc.PathSearch {
						time.Sleep(hedgeSlowDelay)
					}
					inner.ServeHTTP(rw, req)
				})
			}
			srv := httptest.NewServer(h)
			defer srv.Close()
			servers[pi][ri] = srv
		}
	}

	queries := GenQueries(ds, DefaultQuerySpec(), p.Queries*8)
	configs := []struct {
		name  string
		hedge time.Duration
	}{
		{"no-hedge", 0},
		{fmt.Sprintf("hedge=%s", hedgeFireDelay), hedgeFireDelay},
	}
	t := NewTable(fmt.Sprintf("F12 hedged requests vs tail latency (%s, 2 partitions x 2 replicas, one replica +%s)",
		ds.Name, hedgeSlowDelay),
		"config", "p50 ms", "p90 ms", "p99 ms", "mean ms", "hedges", "hedge wins")
	for _, cfg := range configs {
		reg := obs.NewRegistry()
		m := rpc.NewMetrics(reg)
		groups := make([]*rpc.Group, partitions)
		for pi := 0; pi < partitions; pi++ {
			g, err := rpc.NewGroup([]string{servers[pi][0].URL, servers[pi][1].URL},
				rpc.GroupConfig{HedgeDelay: cfg.hedge}, m)
			if err != nil {
				return err
			}
			groups[pi] = g
		}
		re, err := shard.NewRemoteExecutor(groups, shard.RemoteConfig{Metrics: reg})
		if err != nil {
			return err
		}
		lat := make([]float64, 0, len(queries))
		for _, q := range queries {
			start := time.Now()
			if _, _, err := re.SearchCtx(ctx, q); err != nil {
				re.Close()
				return err
			}
			lat = append(lat, float64(time.Since(start).Microseconds())/1000)
		}
		re.Close()
		sort.Float64s(lat)
		mean := 0.0
		for _, v := range lat {
			mean += v
		}
		mean /= float64(len(lat))
		t.AddRow(cfg.name,
			fmtMs(percentile(lat, 0.50)), fmtMs(percentile(lat, 0.90)), fmtMs(percentile(lat, 0.99)),
			fmtMs(mean),
			fmt.Sprint(reg.Counter("uots_rpc_hedges_total", "").Value()),
			fmt.Sprint(reg.Counter("uots_rpc_hedge_wins_total", "").Value()))
	}
	return t.Fprint(w)
}

// percentile reads the q-quantile from an ascending-sorted series
// (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
