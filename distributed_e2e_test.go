package uots_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"uots/internal/core"
	"uots/internal/difftest"
	"uots/internal/trajdb"
)

// shardProc is one running uotsshard process plus the address it
// actually bound (parsed from its stdout, so -addr :0 works).
type shardProc struct {
	cmd  *exec.Cmd
	addr string
}

// startShard launches uotsshard serving partition idx of n and waits
// for its "listening on" line.
func startShard(t *testing.T, bin, data string, idx, n int) *shardProc {
	t.Helper()
	cmd := exec.Command(bin, "-data", data, "-addr", "127.0.0.1:0",
		"-shard", fmt.Sprint(idx), "-shards", fmt.Sprint(n), "-drain", "5s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("uotsshard stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("uotsshard start: %v", err)
	}
	p := &shardProc{cmd: cmd}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "uotsshard: listening on "); ok {
				addrc <- a
				break
			}
		}
		close(addrc)
	}()
	select {
	case a, ok := <-addrc:
		if !ok || a == "" {
			t.Fatalf("uotsshard %d/%d exited before announcing its address", idx, n)
		}
		p.addr = a
	case <-time.After(30 * time.Second):
		t.Fatalf("uotsshard %d/%d never announced its address", idx, n)
	}
	return p
}

// searchVariants are the five query shapes the distributed path must
// serve; every body targets the same dataset region so each variant has
// candidates to rank.
var searchVariants = []struct {
	name string
	body string
}{
	{"default", `{"points":[[1.0,1.0],[1.5,1.2]],"keywords":"t0_kw0 t0_kw1","k":5}`},
	{"threshold", `{"points":[[1.0,1.0],[1.5,1.2]],"keywords":"t0_kw0 t0_kw1","k":5,"theta":0.35}`},
	{"windowed", `{"points":[[1.0,1.0],[1.5,1.2]],"keywords":"t0_kw0 t0_kw1","k":5,"window":"06:00-18:00"}`},
	{"orderaware", `{"points":[[1.0,1.0],[1.5,1.2]],"keywords":"t0_kw0 t0_kw1","k":5,"orderAware":true}`},
	{"diversified", `{"points":[[1.0,1.0],[1.5,1.2]],"keywords":"t0_kw0 t0_kw1","k":5,"diversifyMu":0.4}`},
}

type searchResp struct {
	Results []struct {
		Trajectory int32     `json:"trajectory"`
		Score      float64   `json:"score"`
		Spatial    float64   `json:"spatial"`
		Textual    float64   `json:"textual"`
		DistsKm    []float64 `json:"distsKm"`
	} `json:"results"`
}

// results converts the reply's results for the result comparator.
func (sr searchResp) results() []core.Result {
	out := make([]core.Result, len(sr.Results))
	for i, r := range sr.Results {
		out[i] = core.Result{Traj: trajdb.TrajID(r.Trajectory), Score: r.Score, Spatial: r.Spatial, Textual: r.Textual, Dists: r.DistsKm}
	}
	return out
}

func postSearch(t *testing.T, base, body string) searchResp {
	t.Helper()
	resp, err := http.Post(base+"/search", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("search request: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	var sr searchResp
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("search decode: %v", err)
	}
	return sr
}

// scrapeCounter reads one un-labelled counter from a Prometheus text
// exposition endpoint.
func scrapeCounter(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics scrape: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if val, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(val, "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestDistributedServing drives the full remote topology end to end:
// two uotsshard partitions with two replicas each behind a
// -remote-shards uotsserve router, cross-validated against a monolithic
// uotsserve on the same dataset — then a replica is SIGKILLed mid-run
// (answers must stay correct via failover), the whole partition is
// killed (answers must degrade, flagged in metrics, not error), and the
// router must still drain cleanly on SIGTERM.
func TestDistributedServing(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed end-to-end skipped in -short mode")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, name := range []string{"uotsdgen", "uotsshard", "uotsserve"} {
		out, err := exec.Command("go", "build", "-o", bin(name), "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}
	data := filepath.Join(dir, "world")
	out, err := exec.Command(bin("uotsdgen"),
		"-city", "brn", "-scale", "0.1", "-trajs", "500", "-mean", "15", "-out", data).CombinedOutput()
	if err != nil {
		t.Fatalf("uotsdgen: %v\n%s", err, out)
	}

	// 2 partitions x 2 replicas; replicas of a partition serve identical
	// shard engines, so any one of them can answer for the group.
	const partitions = 2
	grid := make([][]*shardProc, partitions)
	for p := 0; p < partitions; p++ {
		for r := 0; r < 2; r++ {
			grid[p] = append(grid[p], startShard(t, bin("uotsshard"), data, p, partitions))
		}
	}
	var topo []string
	for _, group := range grid {
		var bases []string
		for _, sp := range group {
			bases = append(bases, sp.addr)
		}
		topo = append(topo, strings.Join(bases, ","))
	}

	const monoAddr = "127.0.0.1:18936"
	const routerAddr = "127.0.0.1:18937"
	startServe := func(args ...string) *exec.Cmd {
		cmd := exec.Command(bin("uotsserve"), append([]string{"-data", data, "-drain", "5s"}, args...)...)
		if err := cmd.Start(); err != nil {
			t.Fatalf("uotsserve start: %v", err)
		}
		t.Cleanup(func() {
			if cmd.ProcessState == nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		})
		return cmd
	}
	waitHealthy := func(addr string) {
		t.Helper()
		for attempt := 0; ; attempt++ {
			resp, err := http.Get("http://" + addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				return
			}
			if attempt >= 100 {
				t.Fatalf("server on %s never came up: %v", addr, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	// A router whose -remote-shards disagrees with what the shards serve
	// (here: partition 1's replicas listed as both partitions) would
	// answer 200 with half the corpus twice and the other half missing;
	// it must refuse to start instead, naming a replica and both
	// identities.
	t.Run("miswired router exits 1", func(t *testing.T) {
		cmd := exec.Command(bin("uotsserve"), "-data", data, "-addr", "127.0.0.1:18938",
			"-remote-shards", topo[1]+";"+topo[1])
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("uotsserve start: %v", err)
		}
		exitc := make(chan error, 1)
		go func() { exitc <- cmd.Wait() }()
		select {
		case <-exitc:
		case <-time.After(20 * time.Second):
			cmd.Process.Kill()
			<-exitc
			t.Fatalf("mis-wired router kept running; stderr:\n%s", stderr.String())
		}
		if code := cmd.ProcessState.ExitCode(); code != 1 {
			t.Errorf("exit code %d, want 1", code)
		}
		for _, want := range []string{grid[1][0].addr, "reports partition 1 of 2", "expects 0 of 2"} {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("stderr does not mention %q:\n%s", want, stderr.String())
			}
		}
	})

	startServe("-addr", monoAddr)
	router := startServe("-addr", routerAddr,
		"-remote-shards", strings.Join(topo, ";"),
		"-rpc-partial", "degrade", "-rpc-retries", "3", "-rpc-timeout", "30s",
		"-probe-interval", "200ms",
		"-slow-query-ms", "0.0001") // far below any real query: every search is "slow"
	waitHealthy(monoAddr)
	waitHealthy(routerAddr)
	mono := "http://" + monoAddr
	remote := "http://" + routerAddr

	checkAllVariants := func(phase string) {
		t.Helper()
		for _, v := range searchVariants {
			want := postSearch(t, mono, v.body)
			got := postSearch(t, remote, v.body)
			// The router must rank exactly as the monolithic server does.
			if err := difftest.Mismatch(got.results(), want.results(), len(want.Results)); err != nil {
				t.Fatalf("%s/%s: router vs monolithic: %v", phase, v.name, err)
			}
		}
	}
	checkAllVariants("healthy")

	// /batch also routes through the remote executor (expansion-only on
	// the wire); the aggregate answer must match the monolithic server.
	batchBody := `{"queries":[` + searchVariants[0].body + `,` + searchVariants[0].body + `]}`
	for _, base := range []string{mono, remote} {
		resp, err := http.Post(base+"/batch", "application/json", strings.NewReader(batchBody))
		if err != nil {
			t.Fatalf("batch request: %v", err)
		}
		var br struct {
			Responses []struct {
				Results []json.RawMessage `json:"results"`
				Error   string            `json:"error"`
			} `json:"responses"`
		}
		err = json.NewDecoder(resp.Body).Decode(&br)
		resp.Body.Close()
		if err != nil || len(br.Responses) != 2 {
			t.Fatalf("batch via %s: err=%v responses=%d", base, err, len(br.Responses))
		}
		for i, e := range br.Responses {
			if e.Error != "" || len(e.Results) == 0 {
				t.Fatalf("batch via %s entry %d: error=%q results=%d", base, i, e.Error, len(e.Results))
			}
		}
	}

	// A sampled query ("X-Trace: 1") must come back as one cross-node
	// tree: the router's /debug/trace/{id} replays both partitions'
	// remote child spans inside partition brackets with per-hop
	// wall-clock attribution, and the shard fleet retains its halves
	// under the same ID.
	req, err := http.NewRequest("POST", remote+"/search", strings.NewReader(searchVariants[0].body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("traced search: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced search status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Request-ID")
	if traceID == "" {
		t.Fatal("traced search carries no request id")
	}

	type traceEvent struct {
		Kind string `json:"kind"`
		Note string `json:"note"`
	}
	var tr struct {
		Events []traceEvent `json:"events"`
		Hops   []struct {
			Partition int      `json:"partition"`
			Events    int      `json:"events"`
			Replicas  []string `json:"replicas"`
		} `json:"hops"`
	}
	resp, err = http.Get(remote + "/debug/trace/" + traceID)
	if err != nil {
		t.Fatalf("/debug/trace: %v", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&tr)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/trace decode: %v", err)
	}
	if len(tr.Hops) != partitions {
		t.Fatalf("cross-node trace has %d hops, want %d: %+v", len(tr.Hops), partitions, tr.Hops)
	}
	for _, hop := range tr.Hops {
		if hop.Events == 0 || len(hop.Replicas) == 0 {
			t.Fatalf("hop %d replayed no remote span: %+v", hop.Partition, hop)
		}
	}
	kinds := map[string]int{}
	for _, ev := range tr.Events {
		kinds[ev.Kind]++
	}
	if kinds["rpc_remote_span"] != partitions || kinds["rpc_attempt"] < partitions {
		t.Fatalf("trace kinds %v: want %d rpc_remote_span and >= %d rpc_attempt", kinds, partitions, partitions)
	}
	if kinds["begin"] < partitions {
		t.Fatalf("trace kinds %v: want >= %d replayed shard engine spans (begin)", kinds, partitions)
	}
	// Each partition's serving replica retained its half of the trace.
	for p, group := range grid {
		retained := 0
		for _, sp := range group {
			r, err := http.Get("http://" + sp.addr + "/debug/trace/" + traceID)
			if err != nil {
				t.Fatalf("shard /debug/trace: %v", err)
			}
			if r.StatusCode == http.StatusOK {
				var shardTr struct {
					Shard  int          `json:"shard"`
					Events []traceEvent `json:"events"`
				}
				if err := json.NewDecoder(r.Body).Decode(&shardTr); err != nil {
					t.Fatalf("shard trace decode: %v", err)
				}
				if shardTr.Shard != p || len(shardTr.Events) == 0 {
					t.Fatalf("shard trace for partition %d: shard=%d events=%d", p, shardTr.Shard, len(shardTr.Events))
				}
				retained++
			}
			r.Body.Close()
		}
		if retained == 0 {
			t.Fatalf("no replica of partition %d retained trace %s", p, traceID)
		}
	}

	// The slow-query flight recorder captured the traffic above without
	// any X-Trace header — the threshold is far below real latency, so
	// every /search counts as slow.
	var slow struct {
		Count   int `json:"count"`
		Queries []struct {
			Route  string       `json:"route"`
			Events []traceEvent `json:"events"`
		} `json:"queries"`
	}
	resp, err = http.Get(remote + "/debug/slow")
	if err != nil {
		t.Fatalf("/debug/slow: %v", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&slow)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/slow decode: %v", err)
	}
	if slow.Count == 0 {
		t.Fatal("slow-query flight recorder captured nothing")
	}
	slowSearches := 0
	for _, q := range slow.Queries {
		if q.Route == "/search" && len(q.Events) > 0 {
			slowSearches++
		}
	}
	if slowSearches == 0 {
		t.Fatalf("no /search capture with events in /debug/slow (%d captures)", slow.Count)
	}

	// SIGKILL one replica of partition 0 mid-run: the group fails over to
	// the surviving replica and answers stay identical to monolithic.
	grid[0][0].cmd.Process.Kill()
	grid[0][0].cmd.Wait()
	checkAllVariants("one-replica-down")
	if v := scrapeCounter(t, remote, "uots_shard_degraded_queries_total"); v != 0 {
		t.Fatalf("degraded queries after single-replica kill: %g, want 0 (failover must hide it)", v)
	}

	// Kill the other replica too: partition 0 is gone. Under
	// -rpc-partial degrade the router keeps answering from partition 1,
	// flags the loss in uots_shard_degraded_queries_total, and never
	// serves a 5xx for it.
	grid[0][1].cmd.Process.Kill()
	grid[0][1].cmd.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for {
		sr := postSearch(t, remote, searchVariants[0].body)
		if len(sr.Results) == 0 {
			t.Fatalf("degraded search returned no results")
		}
		if scrapeCounter(t, remote, "uots_shard_degraded_queries_total") > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("partition kill never surfaced in uots_shard_degraded_queries_total")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if v := scrapeCounter(t, remote, "uots_rpc_group_exhausted_total"); v == 0 {
		t.Fatalf("uots_rpc_group_exhausted_total = 0 after killing a whole partition")
	}

	// The router must still shut down cleanly with a partition dead.
	if err := router.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM router: %v", err)
	}
	exitc := make(chan error, 1)
	go func() { exitc <- router.Wait() }()
	select {
	case err := <-exitc:
		if err != nil {
			t.Fatalf("router exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("router did not exit after SIGTERM")
	}

	// And so must a shard server.
	sp := grid[1][0]
	if err := sp.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM shard: %v", err)
	}
	shardExit := make(chan error, 1)
	go func() { shardExit <- sp.cmd.Wait() }()
	select {
	case err := <-shardExit:
		if err != nil {
			t.Fatalf("shard exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("shard did not exit after SIGTERM")
	}
}
