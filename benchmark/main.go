// Command benchmark is the repository's performance gate: it builds
// cmd/uotsserve and cmd/uotsshard from the working tree, generates one
// dataset and four seeded request streams through the public uots
// facade, starts the real processes with their long-standing flags and
// drives them over loopback HTTP with two connections in total. See
// README.md in this directory for the metric and workload tables.
//
// Usage (from the repository root):
//
//	go run ./benchmark                         every workload, untraced and traced
//	go run ./benchmark -workload W -trace 0|1  one run; last stdout line is the result JSON
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -selfcheck
//
// This package uses only CLI flags, the JSON HTTP API and the uots
// facade; uots/benchmark/layers is the one place that imports
// uots/internal.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"uots/benchmark/workload"
)

const (
	specFile = "BENCHMARK.json"
	outDir   = "benchmark/out" // everything a run writes; ignored by git
	coldBoot = 9               // cold boots behind one setup_s
)

// e2eMetrics are the gated metrics, in reporting order. BENCHMARK.json
// lists the same names with their bounds (TestSpecMatchesProgram).
var e2eMetrics = []string{"setup_s", "throughput_qps", "search_p50_ms", "search_p95_ms", "rss_peak_mb"}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	runs     int
	quick    bool
}

func run(ctx context.Context) (err error) {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result JSON as the last line (default: all, with a report)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the request streams")
	flag.IntVar(&o.seconds, "seconds", 0, "timed seconds per run (default: run_seconds of "+specFile+")")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of the traced replay")
	flag.IntVar(&o.runs, "runs", 1, "without -workload: untraced runs per workload, on seeds seed, seed+1, …")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: 1/20 of the seconds and one cold boot; never for reported numbers")
	compare := flag.Bool("compare", false, "compare two results.json files (old new) against the bounds; exit 1 on worse")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice on this tree and -compare the pair")
	flag.Parse()

	sp, err := loadSpec(specFile)
	if err != nil {
		return fmt.Errorf("%w (run from the repository root)", err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two files: old.json new.json")
		}
		return compareFiles(sp, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds <= 0 {
		o.seconds = sp.RunSeconds
	}
	boots := coldBoot
	if o.quick {
		o.seconds = max(1, o.seconds/20)
		boots = 1
	}

	b, err := prepare(ctx)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, b.close()) }()

	switch {
	case *selfcheck:
		return b.selfcheck(ctx, sp, o, boots)
	case o.workload != "":
		return b.single(ctx, o, boots)
	}
	res, err := b.all(ctx, sp, o, boots)
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), res); err != nil {
		return err
	}
	if bad := res.mismatches(); bad > 0 {
		return fmt.Errorf("%d operations failed or disagreed with the oracle", bad)
	}
	return nil
}

// bench is the state every run shares: the built binaries, the dataset
// in process and on disk.
type bench struct {
	env     env
	dataset *workload.Dataset
}

// prepare builds the servers and the traced replay from the working
// tree, generates the dataset and writes it where the servers load it.
func prepare(ctx context.Context) (*bench, error) {
	out, err := filepath.Abs(outDir)
	if err != nil {
		return nil, err
	}
	binDir := filepath.Join(out, "bin")
	if err := buildBinaries(ctx, binDir, "./cmd/uotsserve", "./cmd/uotsshard", "./benchmark/layers"); err != nil {
		return nil, err
	}
	tmpRoot, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{env: env{binDir: binDir, tmpRoot: tmpRoot, data: filepath.Join(tmpRoot, "world")}}
	if b.dataset, err = workload.Generate(); err == nil {
		err = b.dataset.Write(b.env.data)
	}
	if err != nil {
		return nil, errors.Join(err, b.close())
	}
	return b, nil
}

// close removes the run's directory: dataset, WALs, children's dirs.
func (b *bench) close() error { return os.RemoveAll(b.env.tmpRoot) }

// single is the mode the outer driver uses: one workload, one run, the
// result JSON as the last line of standard output.
func (b *bench) single(ctx context.Context, o options, boots int) error {
	if o.trace == 1 {
		res, err := b.traced(ctx, o)
		if err != nil {
			return err
		}
		return res.Print(os.Stdout)
	}
	w, err := workload.Build(b.dataset, o.workload, o.seed, o.seconds)
	if err != nil {
		return err
	}
	out, err := runE2E(ctx, &b.env, b.dataset, w, o.seconds, boots)
	if err != nil {
		return err
	}
	report(os.Stderr, w.Name, out)
	return out.Result.Print(os.Stdout)
}

// traced runs the in-process replay (uots/benchmark/layers) as a child
// and returns the result it printed as its last line; the child's report
// goes to stderr.
func (b *bench) traced(ctx context.Context, o options) (workload.Result, error) {
	var res workload.Result
	cmd := exec.CommandContext(ctx, filepath.Join(b.env.binDir, "layers"),
		"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-out", outDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("traced replay of %s: %w", o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("traced replay of %s printed no result: %w", o.workload, err)
	}
	return res, nil
}

// all runs every workload o.runs times untraced and once traced.
func (b *bench) all(ctx context.Context, sp *spec, o options, boots int) (*results, error) {
	res := &results{Stamp: newStamp(o), Workloads: map[string]*workloadResults{}}
	for _, ws := range sp.Workloads {
		wr := &workloadResults{EndToEnd: map[string][]float64{}}
		res.Workloads[ws.Name] = wr
		for r := 0; r < o.runs; r++ {
			w, err := workload.Build(b.dataset, ws.Name, o.seed+uint64(r), o.seconds)
			if err != nil {
				return nil, err
			}
			out, err := runE2E(ctx, &b.env, b.dataset, w, o.seconds, boots)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ws.Name, err)
			}
			report(os.Stdout, w.Name, out)
			wr.add(out)
		}
		ow := o
		ow.workload = ws.Name
		traced, err := b.traced(ctx, ow)
		if err != nil {
			return nil, err
		}
		wr.PerLayer = traced.Metrics
		if !traced.Correct {
			wr.Failed++
		}
	}
	return res, nil
}

// selfcheck measures the same tree twice and compares the two sets: the
// benchmark agrees with itself when no metric comes out worse.
func (b *bench) selfcheck(ctx context.Context, sp *spec, o options, boots int) error {
	var sets [2]*results
	for i := range sets {
		res, err := b.all(ctx, sp, o, boots)
		if err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("selfcheck-%d.json", i+1)), res); err != nil {
			return err
		}
		sets[i] = res
	}
	if bad := sets[0].mismatches() + sets[1].mismatches(); bad > 0 {
		return fmt.Errorf("%d operations failed or disagreed with the oracle", bad)
	}
	return compareResults(os.Stdout, sp, sets[0], sets[1])
}

// stamp records what produced a results file.
type stamp struct {
	Seed       uint64 `json:"seed"`
	Runs       int    `json:"runs"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newStamp(o options) stamp {
	commit := "unknown" // not every checkout is a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{
		Seed: o.seed, Runs: o.runs, Seconds: o.seconds, Quick: o.quick,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit,
	}
}

// results is the results.json schema -compare reads.
type results struct {
	Stamp     stamp                       `json:"stamp"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

type workloadResults struct {
	ReadsSHA256  []string                   `json:"reads_sha256"`  // one per run
	WritesSHA256 []string                   `json:"writes_sha256"` // one per run
	Attempted    int                        `json:"attempted"`
	Failed       int                        `json:"failed"`
	EndToEnd     map[string][]float64       `json:"end_to_end"` // one value per run
	Detail       []line                     `json:"detail"`     // of the last run
	PerLayer     map[string]workload.Metric `json:"per_layer"`
}

func (wr *workloadResults) add(out *outcome) {
	wr.ReadsSHA256 = append(wr.ReadsSHA256, out.ReadsSHA)
	wr.WritesSHA256 = append(wr.WritesSHA256, out.WritesSHA)
	wr.Attempted += out.Result.Attempted
	wr.Failed += out.Result.Failed
	for name, m := range out.Result.Metrics {
		wr.EndToEnd[name] = append(wr.EndToEnd[name], m.Value)
	}
	wr.Detail = out.Detail
}

func (r *results) mismatches() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

// report prints one untraced run: every gated metric by name with its
// unit, then the ungated detail with sample counts.
func report(f *os.File, name string, out *outcome) {
	r := out.Result
	fmt.Fprintf(f, "== %s: %d attempted, %d failed, timed %.1f s\n", name, r.Attempted, r.Failed, out.TimedWallS)
	fmt.Fprintf(f, "   reads  sha256 %s\n", out.ReadsSHA)
	if out.WritesSHA != workload.SHA256(nil) {
		fmt.Fprintf(f, "   writes sha256 %s\n", out.WritesSHA)
	}
	for _, m := range e2eMetrics {
		fmt.Fprintf(f, "   %-28s %12.4f %s\n", m, r.Metrics[m].Value, r.Metrics[m].Unit)
	}
	for _, l := range out.Detail {
		fmt.Fprintf(f, "   %-28s %12.4f %-6s n=%d\n", l.Name, l.Value, l.Unit, l.N)
	}
	for _, m := range out.Mismatches {
		fmt.Fprintf(f, "   MISMATCH %s\n", m)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
