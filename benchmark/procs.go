package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"uots/benchmark/workload"
)

const (
	bootDeadline = 60 * time.Second
	stopDeadline = 15 * time.Second
	pollInterval = 2 * time.Millisecond
)

// syncBuffer is a bytes.Buffer safe for the exec.Cmd copier goroutine
// and the reader that inspects it after (or while) the child runs.
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

// proc is one server child. Every proc runs in a temp dir of its own and
// is stopped through stop, which reports a crash, a panic on stderr or a
// non-zero exit as an error.
type proc struct {
	name   string
	cmd    *exec.Cmd
	dir    string
	stdout io.ReadCloser
	stderr syncBuffer
	reaper sync.Once
	waited chan struct{} // closed once cmd.Wait returned
	err    error         // cmd.Wait's result, valid after waited
}

// startProc launches bin with args in a fresh directory under tmpRoot.
func startProc(tmpRoot, bin string, args ...string) (*proc, error) {
	name := filepath.Base(bin)
	dir, err := os.MkdirTemp(tmpRoot, name+"-")
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, dir: dir, waited: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Dir = dir
	p.cmd.Stderr = &p.stderr
	if p.stdout, err = p.cmd.StdoutPipe(); err == nil {
		err = p.cmd.Start()
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("starting %s: %w", name, err), os.RemoveAll(dir))
	}
	return p, nil
}

// reap waits for the child in the background, once. It must start only
// after the last read of p.stdout: Wait closes the pipe.
func (p *proc) reap() {
	p.reaper.Do(func() {
		go func() {
			p.err = p.cmd.Wait()
			close(p.waited)
		}()
	})
}

// listenAddr reads the "<name>: listening on HOST:PORT" line uotsshard
// prints once its partition is loaded.
func (p *proc) listenAddr() (string, error) {
	type line struct {
		addr string
		err  error
	}
	got := make(chan line, 1) // one send, never blocks the reader goroutine
	go func() {
		sc := bufio.NewScanner(p.stdout)
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
				got <- line{addr: strings.TrimSpace(addr)}
				return
			}
		}
		got <- line{err: fmt.Errorf("%s exited without printing its address: %s", p.name, p.stderr.String())}
	}()
	select {
	case l := <-got:
		return l.addr, l.err
	case <-time.After(bootDeadline):
		return "", fmt.Errorf("%s printed no address within %s", p.name, bootDeadline)
	}
}

// stop SIGTERMs the child, waits for it (SIGKILL after stopDeadline) and
// reports anything but a clean exit.
func (p *proc) stop() error {
	p.reap()
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only when the child already exited
	select {
	case <-p.waited:
	case <-time.After(stopDeadline):
		_ = p.cmd.Process.Kill() // as above
		<-p.waited
		return fmt.Errorf("%s ignored SIGTERM for %s and was killed", p.name, stopDeadline)
	}
	stderr := p.stderr.String()
	if strings.Contains(stderr, "panic:") || strings.Contains(stderr, "fatal error:") {
		return fmt.Errorf("%s panicked:\n%s", p.name, stderr)
	}
	if p.err != nil {
		return fmt.Errorf("%s: %w\n%s", p.name, p.err, stderr)
	}
	return nil
}

// exited reports whether the child is already gone (a crash during boot
// or under load).
func (p *proc) exited() bool {
	select {
	case <-p.waited:
		return true
	default:
		return false
	}
}

// hwmMB is the child's peak resident set (VmHWM) in MB.
func (p *proc) hwmMB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", l, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// fleet is the set of server processes of one topology, router last.
type fleet struct {
	procs []*proc
	base  string // http://host:port of the process clients talk to
}

// stop stops every process, router first, and removes their directories.
func (f *fleet) stop() error {
	var errs []error
	for i := len(f.procs) - 1; i >= 0; i-- {
		p := f.procs[i]
		errs = append(errs, p.stop(), os.RemoveAll(p.dir))
	}
	f.procs = nil
	return errors.Join(errs...)
}

func (f *fleet) rssPeakMB() (float64, error) {
	var sum float64
	for _, p := range f.procs {
		mb, err := p.hwmMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// env is what booting a topology needs.
type env struct {
	binDir  string // uotsserve, uotsshard
	tmpRoot string // parent of every child's directory
	data    string // dataset prefix
}

// boot starts the topology and returns once its first /search answers
// 200: every process up, dataset loaded, WAL (if any) replayed. took is
// measured from just before the first exec. walDir is used by the ingest
// topology only.
func (e *env) boot(ctx context.Context, topo workload.Topology, walDir string, probe workload.Request) (f *fleet, took time.Duration, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			err = errors.Join(err, f.stop())
			f = nil
		}
	}()
	port, err := freePort()
	if err != nil {
		return f, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-data", e.data, "-addr", addr}
	start := time.Now()
	switch topo {
	case workload.TopoRemote:
		// The router ejects replicas it cannot reach, so the shards come
		// up first; both load their partition concurrently.
		for i := 0; i < 2; i++ {
			p, err := startProc(e.tmpRoot, filepath.Join(e.binDir, "uotsshard"),
				"-data", e.data, "-addr", "127.0.0.1:0", "-shard", strconv.Itoa(i), "-shards", "2")
			if err != nil {
				return f, 0, err
			}
			f.procs = append(f.procs, p)
		}
		var shards []string
		for _, p := range f.procs {
			a, err := p.listenAddr()
			p.reap()
			if err != nil {
				return f, 0, err
			}
			shards = append(shards, a)
		}
		args = append(args, "-remote-shards", strings.Join(shards, ";"))
	case workload.TopoIngest:
		args = append(args, "-ingest", "-wal-dir", walDir, "-fsync", "always")
	}
	router, err := startProc(e.tmpRoot, filepath.Join(e.binDir, "uotsserve"), args...)
	if err != nil {
		return f, 0, err
	}
	router.reap()
	f.procs = append(f.procs, router)
	f.base = "http://" + addr
	if err := f.awaitReady(ctx, probe); err != nil {
		return f, 0, err
	}
	return f, time.Since(start), nil
}

// awaitReady polls the probe request until it answers 200. The probe
// connection is closed afterwards so it does not count against the load
// generator's two.
func (f *fleet) awaitReady(ctx context.Context, probe workload.Request) error {
	tr := &http.Transport{DisableKeepAlives: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	deadline := time.Now().Add(bootDeadline)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		for _, p := range f.procs {
			if p.exited() {
				return fmt.Errorf("%s exited during boot: %v\n%s", p.name, p.err, p.stderr.String())
			}
		}
		resp, err := hc.Post(f.base+probe.Path, "application/json", bytes.NewReader(probe.Body))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to free the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(pollInterval)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return fmt.Errorf("no 200 from %s%s within %s", f.base, probe.Path, bootDeadline)
}

// freePort asks the kernel for an unused loopback port. uotsserve does
// not print its address, so the port is chosen for it.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// buildBinaries compiles the named packages of the working tree into
// binDir.
func buildBinaries(ctx context.Context, binDir string, pkgs ...string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", append([]string{"build", "-o", abs + string(filepath.Separator)}, pkgs...)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %w\n%s", strings.Join(pkgs, " "), err, out)
	}
	return nil
}
