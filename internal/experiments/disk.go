package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"uots/internal/core"
	"uots/internal/diskstore"
)

// DiskResident reproduces the storage experiment (F8): the same expansion
// queries over the in-memory store and over the disk-resident store at
// shrinking LRU buffer budgets. Indexes stay memory resident in both; the
// disk rows pay I/O on the trajectory-payload access paths.
func DiskResident(ctx context.Context, w io.Writer, p Profile) error {
	ds, err := BuildCached(p.BRNSpec(0))
	if err != nil {
		return err
	}
	// A textual-leaning workload (λ=0.2): the pure expansion search is
	// index-only (inverted lists and bounds live in memory), so payload
	// I/O appears on the probe access paths, which small λ exercises.
	spec := DefaultQuerySpec()
	spec.Lambda = 0.2
	queries := GenQueries(ds, spec, p.Queries)

	dir, err := os.MkdirTemp("", "uots-disk-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "store.dsk")
	if err := diskstore.Create(path, ds.Store); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	dataBytes := int(info.Size())

	t := NewTable(fmt.Sprintf("F8 disk-resident store (%s, data file %.1f MiB)", ds.Name, float64(dataBytes)/(1<<20)),
		"storage", "buffer", "mean ms", "hit rate", "MiB read", "visited")

	run := func(label, buffer string, store core.TrajStore, stats func() (hits, loads, bytes int64)) error {
		e, err := core.NewEngine(store, core.Options{})
		if err != nil {
			return err
		}
		var ms float64
		var visited int
		for _, q := range queries {
			start := time.Now()
			_, st, err := e.SearchCtx(ctx, q)
			if err != nil {
				return err
			}
			ms += float64(time.Since(start).Microseconds()) / 1000
			visited += st.VisitedTrajectories
		}
		n := float64(len(queries))
		hitRate, mib := "-", "-"
		if stats != nil {
			hits, loads, bytes := stats()
			if loads > 0 {
				hitRate = fmt.Sprintf("%.3f", float64(hits)/float64(loads))
			}
			mib = fmt.Sprintf("%.2f", float64(bytes)/(1<<20))
		}
		t.AddRow(label, buffer, fmtMs(ms/n), hitRate, mib, fmtCount(float64(visited)/n))
		return nil
	}

	if err := run("memory", "-", ds.Store, nil); err != nil {
		return err
	}
	for _, frac := range []float64{1.0, 0.25, 0.05, 0.01} {
		budget := int(frac * float64(dataBytes))
		disk, err := diskstore.Open(path, ds.Graph, budget)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("%.0f%% of data", frac*100)
		err = run("disk", label, disk, func() (int64, int64, int64) {
			st := disk.Stats()
			return st.Hits, st.Loads, st.BytesRead
		})
		disk.Close()
		if err != nil {
			return err
		}
	}
	return t.Fprint(w)
}
