package uots_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is a mutex-guarded bytes.Buffer for capturing a live
// subprocess's output: exec.Cmd copies the pipe from its own goroutine,
// so reading a plain buffer while the process still runs is a data race.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestLiveIngestCrashRecovery drives the write path the way an operator
// would experience a crash: boot uotsserve in live-ingest mode over a
// generated dataset, ingest batches with -fsync always, capture the
// corpus over the read API, SIGKILL the process with a batch possibly
// in flight, restart on the same WAL directory, and require every
// acknowledged trajectory back byte-identically; a SIGTERM then drains
// the queue and syncs the WAL.
func TestLiveIngestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("live-ingest end-to-end skipped in -short mode")
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
	out, err := exec.Command(bin("uotsdgen"),
		"-city", "brn", "-scale", "0.1", "-trajs", "200", "-mean", "10", "-out", data).CombinedOutput()
	if err != nil {
		t.Fatalf("uotsdgen: %v\n%s", err, out)
	}

	const addr = "127.0.0.1:18933"
	base := "http://" + addr
	walDir := filepath.Join(dir, "wal")
	serveArgs := []string{"-data", data, "-addr", addr, "-drain", "5s",
		"-ingest", "-wal-dir", walDir, "-fsync", "always"}

	srv := exec.Command(bin("uotsserve"), serveArgs...)
	var bootLog syncBuffer
	srv.Stderr = &bootLog
	if err := srv.Start(); err != nil {
		t.Fatalf("uotsserve start: %v", err)
	}
	killed := false
	defer func() {
		if !killed {
			srv.Process.Kill()
			srv.Wait()
		}
	}()
	waitHealthy(t, base)

	// Ingest acknowledged batches; with -fsync always each 200 means
	// the batch is on disk before the response was written.
	var ackedIDs []int64
	for b := 0; b < 5; b++ {
		ids := postIngest(t, base, ingestBatchBody(b, 3))
		ackedIDs = append(ackedIDs, ids...)
	}
	if len(ackedIDs) != 15 {
		t.Fatalf("acknowledged %d trajectories, want 15", len(ackedIDs))
	}

	// The corpus as the read API serves it, keyed by trajectory ID.
	before := make(map[int64][]byte, len(ackedIDs))
	for _, id := range ackedIDs {
		before[id] = getBody(t, base, fmt.Sprintf("/trajectory/%d", id))
	}

	// One batch launched and deliberately not awaited: the SIGKILL may
	// land before, during, or after its commit. Recovery must tolerate
	// every one of those outcomes (including a torn WAL tail).
	go http.Post(base+"/trajectories", "application/json",
		bytes.NewReader(ingestBatchBody(99, 2)))
	time.Sleep(5 * time.Millisecond)

	if err := srv.Process.Kill(); err != nil { // SIGKILL: no drain, no fsync
		t.Fatalf("kill: %v", err)
	}
	srv.Wait()
	killed = true

	// Restart on the same WAL directory.
	srv2 := exec.Command(bin("uotsserve"), serveArgs...)
	var recoverLog syncBuffer
	srv2.Stderr = &recoverLog
	if err := srv2.Start(); err != nil {
		t.Fatalf("uotsserve restart: %v", err)
	}
	exited := false
	defer func() {
		if !exited {
			srv2.Process.Kill()
			srv2.Wait()
		}
	}()
	waitHealthy(t, base)
	if !strings.Contains(recoverLog.String(), "live ingest") {
		t.Fatalf("restart log has no ingest line:\n%s", recoverLog.String())
	}

	// Replay accounting: at least the five acknowledged batches, at
	// least the fifteen acknowledged trajectories.
	var stats struct {
		Live            int    `json:"live"`
		ReplayedRecords uint64 `json:"replayed_records"`
		ReplayedTrajs   uint64 `json:"replayed_trajs"`
	}
	if err := json.Unmarshal(getBody(t, base, "/ingest/stats"), &stats); err != nil {
		t.Fatalf("ingest stats: %v", err)
	}
	if stats.ReplayedRecords < 5 || stats.ReplayedTrajs < 15 {
		t.Fatalf("replay = %d records / %d trajs, want >= 5 / >= 15", stats.ReplayedRecords, stats.ReplayedTrajs)
	}
	if stats.Live < 200+15 {
		t.Fatalf("live = %d, want >= 215 (dataset + acknowledged)", stats.Live)
	}

	// Every acknowledged trajectory is back, byte-identically.
	for _, id := range ackedIDs {
		after := getBody(t, base, fmt.Sprintf("/trajectory/%d", id))
		if !bytes.Equal(before[id], after) {
			t.Fatalf("trajectory %d changed across crash recovery:\nbefore: %s\nafter:  %s",
				id, before[id], after)
		}
	}

	// Graceful exit drains the queue and syncs the WAL.
	if err := srv2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("sigterm: %v", err)
	}
	if err := srv2.Wait(); err != nil {
		t.Fatalf("server exit after SIGTERM: %v\n%s", err, recoverLog.String())
	}
	exited = true
	if !strings.Contains(recoverLog.String(), "ingest drained") {
		t.Fatalf("shutdown log has no drain line:\n%s", recoverLog.String())
	}
}

// ingestBatchBody renders n valid trajectories whose vertices and
// keywords identify the batch.
func ingestBatchBody(batch, n int) []byte {
	type sample struct {
		Vertex int     `json:"vertex"`
		T      float64 `json:"t"`
	}
	type traj struct {
		Samples  []sample `json:"samples"`
		Keywords string   `json:"keywords"`
	}
	var trajs []traj
	for i := 0; i < n; i++ {
		tr := traj{Keywords: fmt.Sprintf("batch%d traj%d museum", batch, i)}
		for j := 0; j < 4; j++ {
			tr.Samples = append(tr.Samples, sample{
				Vertex: (batch*7 + i*3 + j) % 50,
				T:      float64(1000 + batch*100 + i*20 + j*5),
			})
		}
		trajs = append(trajs, tr)
	}
	raw, _ := json.Marshal(map[string]any{"trajectories": trajs})
	return raw
}

// postIngest submits one batch and returns the acknowledged IDs.
func postIngest(t *testing.T, base string, body []byte) []int64 {
	t.Helper()
	resp, err := http.Post(base+"/trajectories", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("ingest request: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, raw)
	}
	var ack struct {
		IDs []int64 `json:"ids"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		t.Fatalf("ingest ack parse: %v\n%s", err, raw)
	}
	return ack.IDs
}

// getBody fetches path and returns the raw response bytes.
func getBody(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d: %s", path, resp.StatusCode, raw)
	}
	return raw
}

// waitHealthy polls /healthz until the server answers.
func waitHealthy(t *testing.T, base string) {
	t.Helper()
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		var resp *http.Response
		resp, err = http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("server never came up: %v", err)
}
