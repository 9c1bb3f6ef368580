// Command uotsbench regenerates the evaluation: every table and figure of
// the reproduced paper, as aligned text tables on stdout.
//
// Usage:
//
//	uotsbench [-profile small|medium|full] [-exp all|settings|pruning|...]
//	uotsbench -list
//
// Profiles scale the datasets to the host; the experiment set and
// expected result shapes are documented in EXPERIMENTS.md. Interrupting
// the run (SIGINT/SIGTERM) cancels the in-flight experiment's searches
// and exits promptly.
//
// The tables are the only output: nothing is written to disk. Numbers
// that gate a change come from the serving benchmark under benchmark/
// (see BENCHMARK.json), not from here.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"uots/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main minus the process globals (signal wiring, exit), so tests
// can drive it.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uotsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	profile := fs.String("profile", "medium", "dataset scale: small, medium or full")
	exp := fs.String("exp", "all", "experiment to run (name or ID), or 'all'")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-4s %-12s %s\n", e.ID, e.Name, e.Desc)
		}
		return 0
	}

	p, err := experiments.ProfileByName(*profile)
	if err != nil {
		fmt.Fprintln(stderr, "uotsbench:", err)
		return 1
	}
	if *exp == "all" {
		if err := experiments.RunAll(ctx, stdout, p); err != nil {
			fmt.Fprintln(stderr, "uotsbench:", err)
			return 1
		}
		return 0
	}
	e, err := experiments.ByName(*exp)
	if err != nil {
		fmt.Fprintln(stderr, "uotsbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "=== %s %s — %s ===\n\n", e.ID, e.Name, e.Desc)
	if err := e.Run(ctx, stdout, p); err != nil {
		fmt.Fprintln(stderr, "uotsbench:", err)
		return 1
	}
	return 0
}
