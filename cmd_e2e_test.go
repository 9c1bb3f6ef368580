package uots_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCommandLineTools builds the real binaries and drives the dataset →
// query → serve pipeline end to end, the way a downstream user would.
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end skipped in -short mode")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, name := range []string{"uotsdgen", "uotsquery", "uotsserve", "uotsshard"} {
		out, err := exec.Command("go", "build", "-o", bin(name), "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}

	// Generate a small dataset.
	data := filepath.Join(dir, "world")
	out, err := exec.Command(bin("uotsdgen"),
		"-city", "brn", "-scale", "0.1", "-trajs", "500", "-mean", "15", "-out", data).CombinedOutput()
	if err != nil {
		t.Fatalf("uotsdgen: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "wrote") {
		t.Fatalf("uotsdgen output: %s", out)
	}
	for _, suffix := range []string{".graph", ".trajs"} {
		if _, err := os.Stat(data + suffix); err != nil {
			t.Fatalf("missing %s: %v", suffix, err)
		}
	}

	// Query it, with GeoJSON export.
	gj := filepath.Join(dir, "results.json")
	out, err = exec.Command(bin("uotsquery"),
		"-data", data, "-at", "1.0,1.0;1.5,1.2", "-keywords", "t0_kw0 t0_kw1",
		"-lambda", "0.5", "-k", "3", "-geojson", gj).CombinedOutput()
	if err != nil {
		t.Fatalf("uotsquery: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "result(s)") || !strings.Contains(string(out), "score=") {
		t.Fatalf("uotsquery output: %s", out)
	}
	raw, err := os.ReadFile(gj)
	if err != nil {
		t.Fatalf("geojson: %v", err)
	}
	var fc struct {
		Features []json.RawMessage `json:"features"`
	}
	if err := json.Unmarshal(raw, &fc); err != nil || len(fc.Features) == 0 {
		t.Fatalf("geojson parse: %v (%d features)", err, len(fc.Features))
	}

	// uotsquery refuses a window beside a baseline (which has no windowed
	// form) and an unknown algorithm before it reads the dataset: the
	// prefix below does not exist, so a late check would name the file.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-algo", "exhaustive", "-window", "08:00-12:00"}, `-window applies to -algo expansion only, not "exhaustive"`},
		{[]string{"-algo", "textfirst", "-window", "08:00-12:00"}, `-window applies to -algo expansion only, not "textfirst"`},
		{[]string{"-algo", "dijkstra"}, `unknown algorithm "dijkstra"`},
	} {
		args := append(c.args, "-data", filepath.Join(dir, "missing"), "-loc", "0")
		out, err := exec.Command(bin("uotsquery"), args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), c.want) {
			t.Errorf("uotsquery %v: err = %v, want a non-zero exit saying %q\n%s", c.args, err, c.want, out)
		}
	}

	// uotsdgen refuses counts and sizes that would panic in a generator
	// or write a dataset no server loads, before it writes anything.
	for _, args := range [][]string{{"-trajs", "0"}, {"-topics", "0"}, {"-terms", "0"}, {"-scale", "0"}, {"-scale", "-1"}} {
		prefix := filepath.Join(dir, "refused")
		out, err := exec.Command(bin("uotsdgen"), append(args, "-out", prefix)...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), args[0]+" "+args[1]+":") || strings.Contains(string(out), "goroutine") {
			t.Errorf("uotsdgen %v: err = %v, want a one-line non-zero exit naming the flag\n%s", args, err, out)
		}
		if _, err := os.Stat(prefix + ".graph"); err == nil {
			t.Errorf("uotsdgen %v wrote %s.graph", args, prefix)
		}
	}

	// There is one partition function and no flag to pick another: an old
	// command line naming one fails flag parsing instead of being ignored.
	for _, cmd := range [][]string{{"uotsserve", "-partition", "region"}, {"uotsshard", "-partition", "hash"}} {
		out, err := exec.Command(bin(cmd[0]), append(cmd[1:], "-data", data)...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "flag provided but not defined: -partition") {
			t.Errorf("%v: err = %v, want a non-zero exit naming the unknown flag\n%s", cmd, err, out)
		}
	}

	// Out-of-range RPC values are refused, not reinterpreted as a default
	// or as "off". The deadline only bounds a server that would come up.
	for _, args := range [][]string{{"-rpc-retries", "0"}, {"-rpc-timeout", "-1s"}, {"-probe-interval", "-1s"}} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, bin("uotsserve"), append(args, "-data", data, "-addr", "127.0.0.1:0")...).CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		if err == nil || timedOut || !strings.Contains(string(out), args[0]+" "+args[1]+":") {
			t.Errorf("uotsserve %v: err = %v, want a non-zero exit naming the flag\n%s", args, err, out)
		}
	}

	// Serve it and hit the API.
	srv := exec.Command(bin("uotsserve"), "-data", data, "-addr", "127.0.0.1:18931", "-drain", "10s")
	if err := srv.Start(); err != nil {
		t.Fatalf("uotsserve start: %v", err)
	}
	exited := false
	defer func() {
		if !exited {
			srv.Process.Kill()
			srv.Wait()
		}
	}()
	var resp *http.Response
	for attempt := 0; attempt < 50; attempt++ {
		resp, err = http.Get("http://127.0.0.1:18931/healthz")
		if err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()

	searchBody := strings.NewReader(`{"points":[[1.0,1.0]],"keywords":"t0_kw0","k":2}`)
	resp, err = http.Post("http://127.0.0.1:18931/search", "application/json", searchBody)
	if err != nil {
		t.Fatalf("search request: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	var sr struct {
		Results []struct {
			Trajectory int32   `json:"trajectory"`
			Score      float64 `json:"score"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("search decode: %v", err)
	}
	if len(sr.Results) != 2 {
		t.Fatalf("search returned %d results", len(sr.Results))
	}

	// Graceful shutdown: put a large batch in flight, SIGTERM the server
	// mid-request, and verify the in-flight work drains to a full 200
	// response and the process exits 0 (not killed, not erroring out).
	var batch struct {
		Queries []map[string]any `json:"queries"`
	}
	for i := 0; i < 400; i++ {
		batch.Queries = append(batch.Queries, map[string]any{
			"points":   [][2]float64{{1.0, 1.0}, {1.5, 1.2}},
			"keywords": "t0_kw0 t0_kw1",
			"k":        3,
		})
	}
	batchRaw, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	batchDone := make(chan error, 1)
	var batchStatus int
	go func() {
		resp, err := http.Post("http://127.0.0.1:18931/batch", "application/json", bytes.NewReader(batchRaw))
		if err != nil {
			batchDone <- err
			return
		}
		batchStatus = resp.StatusCode
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		batchDone <- err
	}()

	// Wait until /stats shows the batch actually in flight so the SIGTERM
	// demonstrably lands mid-request. If the batch somehow finishes first,
	// the drain assertion degenerates but the clean-exit one still holds.
	waitInFlight := time.Now().Add(10 * time.Second)
poll:
	for {
		select {
		case err := <-batchDone:
			batchDone <- err
			break poll
		default:
		}
		resp, err := http.Get("http://127.0.0.1:18931/stats")
		if err == nil {
			var stats struct {
				Serving struct {
					InFlight int `json:"inFlight"`
				} `json:"serving"`
			}
			decodeErr := json.NewDecoder(resp.Body).Decode(&stats)
			resp.Body.Close()
			if decodeErr == nil && stats.Serving.InFlight > 0 {
				break poll
			}
		}
		if time.Now().After(waitInFlight) {
			t.Fatal("batch never showed up in /stats inFlight")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case err := <-batchDone:
		if err != nil {
			t.Fatalf("in-flight batch was not drained: %v", err)
		}
		if batchStatus != http.StatusOK {
			t.Fatalf("in-flight batch status %d, want 200", batchStatus)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("in-flight batch never completed after SIGTERM")
	}

	exitc := make(chan error, 1)
	go func() { exitc <- srv.Wait() }()
	select {
	case err := <-exitc:
		exited = true
		if err != nil {
			t.Fatalf("server exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}

	// The listener must actually be gone.
	if _, err := http.Get("http://127.0.0.1:18931/healthz"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}

// TestServeFromDisk: uotsdgen's <data>.trajs is the disk store's record
// file. uotsserve -data d -disk d.trajs, through a buffer smaller than
// the records, must answer /search exactly as uotsserve -data d does —
// plain, windowed and through the exhaustive baseline — and boot warm
// from the sidecar uotsdgen wrote, cold when it is absent.
func TestServeFromDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end skipped in -short mode")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, name := range []string{"uotsdgen", "uotsserve"} {
		out, err := exec.Command("go", "build", "-o", bin(name), "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}
	data := filepath.Join(dir, "world")
	if out, err := exec.Command(bin("uotsdgen"),
		"-city", "brn", "-scale", "0.1", "-trajs", "500", "-mean", "15", "-out", data).CombinedOutput(); err != nil {
		t.Fatalf("uotsdgen: %v\n%s", err, out)
	}
	records, sidecar := data+".trajs", data+".trajs.idx"
	fi, err := os.Stat(records)
	if err != nil {
		t.Fatal(err)
	}
	cache := fi.Size() / 8

	const addr = "127.0.0.1:18941"
	// serve boots uotsserve, returns every /search answer with the timing
	// field dropped, shuts the server down and returns its log.
	bodies := []string{
		`{"points":[[1.0,1.0],[1.5,1.2]],"keywords":"t0_kw0 t1_kw1","k":5}`,
		`{"points":[[1.0,1.0],[1.5,1.2]],"keywords":"t0_kw0 t1_kw1","k":5,"window":"06:00-12:00"}`,
		`{"points":[[1.0,1.0],[1.5,1.2]],"keywords":"t0_kw0 t1_kw1","k":5,"algorithm":"exhaustive"}`,
	}
	serve := func(args ...string) (answers []string, log string) {
		t.Helper()
		srv := exec.Command(bin("uotsserve"), append([]string{"-data", data, "-addr", addr, "-drain", "5s"}, args...)...)
		var stderr syncBuffer
		srv.Stderr = &stderr
		if err := srv.Start(); err != nil {
			t.Fatalf("uotsserve start: %v", err)
		}
		defer func() {
			srv.Process.Signal(syscall.SIGTERM)
			if err := srv.Wait(); err != nil {
				t.Errorf("uotsserve %v exited uncleanly: %v\n%s", args, err, stderr.String())
			}
		}()
		waitHealthy(t, "http://"+addr)
		for _, body := range bodies {
			resp, err := http.Post("http://"+addr+"/search", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("search %s: %v", body, err)
			}
			var sr struct {
				Results json.RawMessage `json:"results"`
				Stats   map[string]any  `json:"stats"`
			}
			err = json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || len(sr.Results) < len(`[{}]`) {
				t.Fatalf("search %s: status %d, %v, results %s", body, resp.StatusCode, err, sr.Results)
			}
			delete(sr.Stats, "elapsedMs")
			stats, _ := json.Marshal(sr.Stats)
			answers = append(answers, string(sr.Results)+string(stats))
		}
		return answers, stderr.String()
	}

	want, _ := serve()
	disk := []string{"-disk", records, "-cache", strconv.FormatInt(cache, 10)}
	if err := os.Rename(sidecar, sidecar+".aside"); err != nil {
		t.Fatalf("uotsdgen left no index sidecar: %v", err)
	}
	cold, coldLog := serve(disk...)
	if err := os.Rename(sidecar+".aside", sidecar); err != nil {
		t.Fatal(err)
	}
	warm, warmLog := serve(disk...)
	for i, body := range bodies {
		if cold[i] != want[i] || warm[i] != want[i] {
			t.Errorf("%s\nin memory: %s\ndisk, cold: %s\ndisk, warm: %s", body, want[i], cold[i], warm[i])
		}
	}
	if !strings.Contains(coldLog, "cold start") || strings.Contains(coldLog, "warm start") {
		t.Errorf("boot without a sidecar should log a cold start:\n%s", coldLog)
	}
	if !strings.Contains(warmLog, "warm start") {
		t.Errorf("boot beside uotsdgen's sidecar should log a warm start:\n%s", warmLog)
	}
}
