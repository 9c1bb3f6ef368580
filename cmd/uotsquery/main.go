// Command uotsquery answers a single UOTS query against a dataset written
// by uotsdgen, printing the recommended trajectories with their score
// decomposition.
//
// Query locations are given either as vertex IDs (-loc "120,3456") or as
// planar coordinates in kilometres snapped to the nearest vertices
// (-at "3.5,4.1;7.0,2.2"). Keywords are free text (-keywords
// "t0_kw1 t0_kw2" — for generated datasets the vocabulary uses
// t<topic>_kw<rank> naming).
//
// Usage:
//
//	uotsquery -data dataset -loc 120,3456 -keywords "t0_kw1 t0_kw2" -lambda 0.5 -k 5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"uots"
)

func main() {
	data := flag.String("data", "dataset", "dataset path prefix (expects <prefix>.graph and <prefix>.trajs)")
	locStr := flag.String("loc", "", "comma-separated query vertex IDs")
	atStr := flag.String("at", "", "semicolon-separated planar coordinates x,y (km), snapped to nearest vertices")
	keywords := flag.String("keywords", "", "travel-intention keywords (free text)")
	lambda := flag.Float64("lambda", 0.5, "spatial/textual preference λ in [0,1]")
	k := flag.Int("k", 5, "number of trajectories to recommend")
	algo := flag.String("algo", "expansion", "algorithm: expansion, exhaustive or textfirst")
	window := flag.String("window", "", "optional departure window HH:MM-HH:MM")
	geojson := flag.String("geojson", "", "write the result trajectories as GeoJSON to this file")
	flag.Parse()

	// Reject flag combinations before the dataset loads: a window only
	// filters the expansion search, and the baselines have no windowed form.
	switch *algo {
	case "expansion", "exhaustive", "textfirst":
	default:
		fatal(fmt.Errorf("unknown algorithm %q (want expansion, exhaustive or textfirst)", *algo))
	}
	var w *uots.TimeWindow
	if *window != "" {
		if *algo != "expansion" {
			fatal(fmt.Errorf("-window applies to -algo expansion only, not %q", *algo))
		}
		parsed, err := parseWindow(*window)
		if err != nil {
			fatal(err)
		}
		w = &parsed
	}

	g, db := load(*data)
	engine, err := uots.NewEngine(db, uots.Options{})
	if err != nil {
		fatal(err)
	}

	q := uots.Query{Lambda: *lambda, K: *k}
	if *locStr != "" {
		for _, part := range strings.Split(*locStr, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(fmt.Errorf("bad vertex id %q: %w", part, err))
			}
			q.Locations = append(q.Locations, uots.VertexID(id))
		}
	}
	if *atStr != "" {
		idx := uots.NewVertexIndex(g, 0)
		for _, part := range strings.Split(*atStr, ";") {
			xy := strings.Split(part, ",")
			if len(xy) != 2 {
				fatal(fmt.Errorf("bad coordinate %q (want x,y)", part))
			}
			x, errX := strconv.ParseFloat(strings.TrimSpace(xy[0]), 64)
			y, errY := strconv.ParseFloat(strings.TrimSpace(xy[1]), 64)
			if errX != nil || errY != nil {
				fatal(fmt.Errorf("bad coordinate %q", part))
			}
			v, d := idx.Nearest(uots.Point{X: x, Y: y})
			fmt.Printf("snapped (%.2f, %.2f) to vertex %d (%.0f m away)\n", x, y, v, d*1000)
			q.Locations = append(q.Locations, v)
		}
	}
	if vocab := db.Vocab(); vocab != nil && *keywords != "" {
		q.Keywords = vocab.InternAll(uots.Tokenize(*keywords))
	}

	ctx := context.Background()
	var results []uots.Result
	var stats uots.SearchStats
	switch {
	case *algo == "exhaustive":
		results, stats, err = engine.ExhaustiveSearchCtx(ctx, q)
	case *algo == "textfirst":
		results, stats, err = engine.TextFirstSearchCtx(ctx, q)
	case w != nil:
		results, stats, err = engine.SearchWindowedCtx(ctx, q, *w)
	default:
		results, stats, err = engine.SearchCtx(ctx, q)
	}
	if err != nil {
		fatal(err)
	}

	if *geojson != "" && len(results) > 0 {
		ids := make([]uots.TrajID, len(results))
		for i, r := range results {
			ids[i] = r.Traj
		}
		f, err := os.Create(*geojson)
		if err != nil {
			fatal(err)
		}
		if err := uots.ExportGeoJSON(f, db, ids...); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d result trajectories to %s\n", len(ids), *geojson)
	}

	fmt.Printf("\n%d result(s) in %v (visited %d trajectories, %d candidates scored)\n\n",
		len(results), stats.Elapsed, stats.VisitedTrajectories, stats.Candidates)
	for rank, r := range results {
		traj := db.Traj(r.Traj)
		fmt.Printf("#%d trajectory %d  score=%.4f (spatial %.4f, textual %.4f)\n",
			rank+1, r.Traj, r.Score, r.Spatial, r.Textual)
		fmt.Printf("    departs %s, %d samples, keywords: %s\n",
			clock(traj.Start()), traj.Len(), keywordNames(db, r.Traj))
		for i, d := range r.Dists {
			fmt.Printf("    d(o%d, τ) = %.2f km\n", i+1, d)
		}
	}
}

func load(prefix string) (*uots.Graph, *uots.Store) {
	gf, err := os.Open(prefix + ".graph")
	if err != nil {
		fatal(err)
	}
	defer gf.Close()
	g, err := uots.ReadGraph(gf)
	if err != nil {
		fatal(err)
	}
	tf, err := os.Open(prefix + ".trajs")
	if err != nil {
		fatal(err)
	}
	defer tf.Close()
	db, err := uots.ReadStore(tf, g)
	if err != nil {
		fatal(err)
	}
	return g, db
}

func parseWindow(s string) (uots.TimeWindow, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 2 {
		return uots.TimeWindow{}, fmt.Errorf("bad window %q (want HH:MM-HH:MM)", s)
	}
	from, err := parseClock(parts[0])
	if err != nil {
		return uots.TimeWindow{}, err
	}
	to, err := parseClock(parts[1])
	if err != nil {
		return uots.TimeWindow{}, err
	}
	return uots.TimeWindow{From: from, To: to}, nil
}

func parseClock(s string) (float64, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	if len(parts) != 2 {
		return 0, fmt.Errorf("bad time %q (want HH:MM)", s)
	}
	h, errH := strconv.Atoi(parts[0])
	m, errM := strconv.Atoi(parts[1])
	if errH != nil || errM != nil || h < 0 || h > 23 || m < 0 || m > 59 {
		return 0, fmt.Errorf("bad time %q", s)
	}
	return float64(h*3600 + m*60), nil
}

func clock(seconds float64) string {
	s := int(seconds)
	return fmt.Sprintf("%02d:%02d", s/3600, s%3600/60)
}

func keywordNames(db *uots.Store, id uots.TrajID) string {
	vocab := db.Vocab()
	if vocab == nil {
		return "(none)"
	}
	var names []string
	for _, t := range db.Keywords(id) {
		if name, ok := vocab.Term(t); ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return "(none)"
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uotsquery:", err)
	os.Exit(1)
}
