package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"uots/benchmark/workload"
)

const (
	warmupRequests = 200
	checkEvery     = 50  // every 50th read is recomputed by the oracle
	walPrimeWrites = 100 // writes in the WAL the timed ingest boots replay
)

// newConn returns an HTTP client that holds exactly one connection. The
// load generator creates two of them per run and nothing else.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

// op is one completed operation as the client saw it.
type op struct {
	index int // position in the request list
	ms    float64
	ok    bool   // status 200 and body read
	body  []byte // kept for every checkEvery-th read and for every write
}

// send performs one request and returns when its reply was read in
// full; the caller decides what the latency counts from.
func send(hc *http.Client, base string, r workload.Request, keep bool) (o op, done time.Time) {
	req, err := http.NewRequest(http.MethodPost, base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return op{}, time.Now()
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return op{}, time.Now()
	}
	defer resp.Body.Close()
	var body []byte
	if keep {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return op{ok: err == nil && resp.StatusCode == http.StatusOK, body: body}, time.Now()
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop runs one client per conn: each sends the next unsent request
// of reqs (wrapping around) as soon as its previous one completed, until
// stop reports true. Operations are returned in completion order per
// client, concatenated.
func closedLoop(conns []*http.Client, base string, reqs []workload.Request, stop func(sent int) bool) []op {
	var next atomic.Int64
	out := make([][]op, len(conns))
	var wg sync.WaitGroup
	for c, hc := range conns {
		wg.Add(1)
		go func(c int, hc *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if stop(i) {
					return
				}
				sent := time.Now()
				o, done := send(hc, base, reqs[i%len(reqs)], i%checkEvery == 0)
				o.index, o.ms = i, millis(done.Sub(sent))
				out[c] = append(out[c], o)
			}
		}(c, hc)
	}
	wg.Wait()
	var all []op
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// pacedWrites sends writes on the fixed schedule of perSec per second,
// one at a time on one connection, timing each from its due time. It
// stops early when ctx is cancelled.
func pacedWrites(ctx context.Context, hc *http.Client, base string, writes []workload.Request, perSec float64) (ops []op, maxLate time.Duration) {
	start := time.Now()
	for i, w := range writes {
		due := workload.Due(start, i, perSec)
		select {
		case <-time.After(time.Until(due)):
		case <-ctx.Done():
			return ops, maxLate
		}
		sent := time.Now()
		o, done := send(hc, base, w, true)
		lat, late := workload.PacedLatency(due, sent, done)
		o.index, o.ms = i, millis(lat)
		if late > maxLate {
			maxLate = late
		}
		ops = append(ops, o)
	}
	return ops, maxLate
}

// line is one printed value beyond the gated metrics: a per-kind split,
// a sample count, the writer's lateness.
type line struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// outcome is everything one untraced run of one workload produced.
type outcome struct {
	Result     workload.Result
	Detail     []line
	ReadsSHA   string
	WritesSHA  string
	TimedWallS float64
	Mismatches []string // oracle and durability failures, for the report
}

// runE2E measures one workload against the real binaries: boots cold
// boots for setup_s, then a warm-up, then seconds of timed load, then the
// correctness checks.
func runE2E(ctx context.Context, e *env, d *workload.Dataset, w *workload.Workload, seconds, boots int) (out *outcome, err error) {
	out = &outcome{ReadsSHA: workload.SHA256(w.Reads), WritesSHA: workload.SHA256(w.Writes)}
	probe := w.Reads[0]

	walRoot, err := os.MkdirTemp(e.tmpRoot, "wal-")
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(walRoot)) }()
	primed, fresh := filepath.Join(walRoot, "primed"), filepath.Join(walRoot, "fresh")
	if w.Topology == workload.TopoIngest {
		// The timed boots replay a WAL a first, untimed process wrote, so
		// recovery time is part of setup_s. The measured run then starts
		// over an empty WAL: every run ingests into the same 30 000 trips.
		if err := primeWAL(ctx, e, w, primed, probe); err != nil {
			return nil, fmt.Errorf("priming the WAL: %w", err)
		}
	}

	var bootS []float64
	for i := 0; i < boots; i++ {
		f, took, err := e.boot(ctx, w.Topology, primed, probe)
		if err != nil {
			return nil, fmt.Errorf("cold boot %d: %w", i+1, err)
		}
		if err := f.stop(); err != nil {
			return nil, fmt.Errorf("cold boot %d: %w", i+1, err)
		}
		bootS = append(bootS, took.Seconds())
	}

	f, _, err := e.boot(ctx, w.Topology, fresh, probe)
	if err != nil {
		return nil, err
	}
	defer func() {
		if f != nil {
			err = errors.Join(err, f.stop())
		}
	}()

	conns := []*http.Client{newConn(), newConn()}
	defer func() {
		for _, hc := range conns {
			hc.CloseIdleConnections()
		}
	}()

	// Warm-up: the tail of the list, so no timed request has run before.
	tail := w.Reads[len(w.Reads)-warmupRequests:]
	closedLoop(conns, f.base, tail, func(sent int) bool { return sent >= warmupRequests || ctx.Err() != nil })

	var reads, writes []op
	var maxLate time.Duration
	start := time.Now()
	if len(w.Writes) > 0 {
		var writing atomic.Bool
		writing.Store(true)
		done := make(chan struct{})
		go func() {
			defer close(done)
			writes, maxLate = pacedWrites(ctx, conns[0], f.base, w.Writes, workload.WritesPerSec)
			writing.Store(false)
		}()
		reads = closedLoop(conns[1:], f.base, w.Reads, func(int) bool { return !writing.Load() || ctx.Err() != nil })
		<-done
	} else {
		deadline := start.Add(time.Duration(seconds) * time.Second)
		reads = closedLoop(conns, f.base, w.Reads, func(int) bool { return !time.Now().Before(deadline) || ctx.Err() != nil })
	}
	wall := time.Since(start)
	out.TimedWallS = wall.Seconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rss, err := f.rssPeakMB()
	if err != nil {
		return nil, err
	}

	failed := len(reads) + len(writes) - len(okLatencies(reads)) - len(okLatencies(writes))
	if len(w.Writes) > 0 {
		bad, err := checkDurability(conns[0], f.base, w, writes)
		if err != nil {
			return nil, err
		}
		out.Mismatches = append(out.Mismatches, bad...)
	}
	// The servers are no longer needed; stop them before the oracle takes
	// the CPU, and fail the run if one of them crashed or panicked.
	err = f.stop()
	f = nil
	if err != nil {
		return nil, err
	}

	bad, err := checkReads(ctx, d, w, reads)
	if err != nil {
		return nil, err
	}
	out.Mismatches = append(out.Mismatches, bad...)
	failed += len(out.Mismatches)

	penalty := wall.Seconds() * 1000
	search := workload.Summarize(okLatencies(reads), len(reads), penalty)
	out.Result = workload.Result{
		Correct:   len(out.Mismatches) == 0,
		Attempted: len(reads) + len(writes),
		Failed:    failed,
		Metrics: map[string]workload.Metric{
			"setup_s":        {Value: workload.Median(bootS), Unit: "s"},
			"throughput_qps": {Value: float64(search.N) / wall.Seconds(), Unit: "1/s"},
			"search_p50_ms":  {Value: search.P50, Unit: "ms"},
			"search_p95_ms":  {Value: search.P95, Unit: "ms"},
			"rss_peak_mb":    {Value: rss, Unit: "MB"},
		},
	}

	out.Detail = append(out.Detail,
		line{"search.samples_beyond_p95", float64(search.N / 20), "count", search.N},
		line{"setup.boot_spread", spreadOf(bootS), "ratio", len(bootS)})
	byKind := map[workload.Kind][]float64{}
	for _, o := range reads {
		if o.ok {
			k := w.Reads[o.index%len(w.Reads)].Kind
			byKind[k] = append(byKind[k], o.ms)
		}
	}
	if len(byKind) > 1 {
		for _, k := range workload.VariantKinds {
			s := workload.Summarize(byKind[k], len(byKind[k]), penalty)
			out.Detail = append(out.Detail, line{"server." + string(k) + "_p50_ms", s.P50, "ms", s.N})
		}
	}
	if len(writes) > 0 {
		ack := workload.Summarize(okLatencies(writes), len(writes), penalty)
		out.Detail = append(out.Detail,
			line{"ingest.ack_p50_ms", ack.P50, "ms", ack.N},
			line{"ingest.ack_p95_ms", ack.P95, "ms", ack.N},
			line{"ingest.writer_max_late_ms", millis(maxLate), "ms", len(writes)})
	}
	return out, nil
}

// primeWAL boots an ingest server over walDir, sends it walPrimeWrites
// writes and shuts it down cleanly.
func primeWAL(ctx context.Context, e *env, w *workload.Workload, walDir string, probe workload.Request) error {
	f, _, err := e.boot(ctx, workload.TopoIngest, walDir, probe)
	if err != nil {
		return err
	}
	hc := newConn()
	defer hc.CloseIdleConnections()
	n := min(walPrimeWrites, len(w.Writes))
	for _, wr := range w.Writes[:n] {
		if o, _ := send(hc, f.base, wr, false); !o.ok {
			return errors.Join(errors.New("a priming write was refused"), f.stop())
		}
	}
	return f.stop()
}

func okLatencies(ops []op) []float64 {
	ms := make([]float64, 0, len(ops))
	for _, o := range ops {
		if o.ok {
			ms = append(ms, o.ms)
		}
	}
	return ms
}

// checkDurability verifies the write side of ingest-mixed: /stats counts
// the corpus plus every acknowledged trajectory, and every acknowledged
// id is served by GET /trajectory/{id} with the samples that were sent.
func checkDurability(hc *http.Client, base string, w *workload.Workload, writes []op) (bad []string, err error) {
	acked := 0
	for _, o := range writes {
		if !o.ok {
			continue
		}
		var ack struct {
			IDs []int64 `json:"ids"`
		}
		if err := json.Unmarshal(o.body, &ack); err != nil || len(ack.IDs) != w.Writes[o.index].Trajs {
			bad = append(bad, fmt.Sprintf("write %d: acknowledgement %q does not carry %d ids", o.index, o.body, w.Writes[o.index].Trajs))
			continue
		}
		var sent workload.Ingest
		if err := json.Unmarshal(w.Writes[o.index].Body, &sent); err != nil {
			return nil, err
		}
		for j, id := range ack.IDs {
			acked++
			var got struct {
				Samples []struct {
					Vertex int32 `json:"vertex"`
				} `json:"samples"`
			}
			if err := getJSON(hc, fmt.Sprintf("%s/trajectory/%d", base, id), &got); err != nil {
				bad = append(bad, fmt.Sprintf("write %d: acknowledged id %d: %v", o.index, id, err))
				continue
			}
			want := sent.Trajectories[j].Samples
			same := len(got.Samples) == len(want)
			for k := 0; same && k < len(want); k++ {
				same = got.Samples[k].Vertex == want[k].Vertex
			}
			if !same {
				bad = append(bad, fmt.Sprintf("write %d: id %d does not hold the samples that were sent", o.index, id))
			}
		}
	}
	var stats struct {
		Trajectories int `json:"trajectories"`
	}
	if err := getJSON(hc, base+"/stats", &stats); err != nil {
		return nil, err
	}
	if want := workload.Trips + acked; stats.Trajectories != want {
		bad = append(bad, fmt.Sprintf("/stats reports %d trajectories, want %d + %d acknowledged", stats.Trajectories, workload.Trips, acked))
	}
	return bad, nil
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
