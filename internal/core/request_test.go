package core

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"uots/internal/roadnet"
)

// recordingBackend notes which entry point a Request reached and with
// what arguments.
type recordingBackend struct {
	method string
	q      Query
	arg    any
}

func (b *recordingBackend) hit(method string, q Query, arg any) ([]Result, SearchStats, error) {
	b.method, b.q, b.arg = method, q, arg
	return []Result{{Traj: 1}}, SearchStats{Candidates: 1}, nil
}

func (b *recordingBackend) SearchCtx(_ context.Context, q Query) ([]Result, SearchStats, error) {
	return b.hit("SearchCtx", q, nil)
}

func (b *recordingBackend) SearchThresholdCtx(_ context.Context, q Query, theta float64) ([]Result, SearchStats, error) {
	return b.hit("SearchThresholdCtx", q, theta)
}

func (b *recordingBackend) SearchWindowedCtx(_ context.Context, q Query, w TimeWindow) ([]Result, SearchStats, error) {
	return b.hit("SearchWindowedCtx", q, w)
}

func (b *recordingBackend) OrderAwareSearchCtx(_ context.Context, q Query) ([]Result, SearchStats, error) {
	return b.hit("OrderAwareSearchCtx", q, nil)
}

func (b *recordingBackend) DiversifiedSearchCtx(_ context.Context, q Query, opts DiversifyOptions) ([]Result, SearchStats, error) {
	return b.hit("DiversifiedSearchCtx", q, opts)
}

func TestRequest(t *testing.T) {
	q := Query{Locations: []roadnet.VertexID{3, 1}, Lambda: 0.5, K: 4}
	f := func(v float64) *float64 { return &v }
	window := TimeWindow{From: 7 * 3600, To: 11 * 3600}
	div := DiversifyOptions{Mu: 0.5}

	// The modifiers one at a time; pairs are built from these below.
	single := []struct {
		name        string
		set         func(*Request)
		variant     string
		sharesBound bool
		method      string
		arg         any
	}{
		{"theta", func(r *Request) { r.Theta = f(0.5) }, "threshold", false, "SearchThresholdCtx", 0.5},
		{"window", func(r *Request) { r.Window = &window }, "windowed", true, "SearchWindowedCtx", window},
		{"orderAware", func(r *Request) { r.OrderAware = true }, "orderaware", true, "OrderAwareSearchCtx", nil},
		{"diversify", func(r *Request) { r.Diversify = &div }, "diversified", false, "DiversifiedSearchCtx", div},
	}

	check := func(name string, req Request, variant string, shares bool, method string, arg any) {
		t.Helper()
		if err := req.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", name, err)
		}
		if got := req.Variant(); got != variant {
			t.Errorf("%s: Variant = %q, want %q", name, got, variant)
		}
		if got := req.SharesBound(); got != shares {
			t.Errorf("%s: SharesBound = %v, want %v", name, got, shares)
		}
		var b recordingBackend
		res, stats, err := req.Run(context.Background(), &b)
		if err != nil || len(res) != 1 || stats.Candidates != 1 {
			t.Errorf("%s: Run = (%v, %+v, %v), want the backend's answer", name, res, stats, err)
		}
		if b.method != method || !reflect.DeepEqual(b.q, q) || !reflect.DeepEqual(b.arg, arg) {
			t.Errorf("%s: Run reached %s(%+v, %v), want %s(%+v, %v)", name, b.method, b.q, b.arg, method, q, arg)
		}
	}
	check("no modifier", Request{Query: q}, "search", true, "SearchCtx", nil)
	for _, m := range single {
		req := Request{Query: q}
		m.set(&req)
		check(m.name, req, m.variant, m.sharesBound, m.method, m.arg)
	}

	for i, a := range single {
		for _, b := range single[i+1:] {
			req := Request{Query: q}
			a.set(&req)
			b.set(&req)
			err := req.Validate()
			if !errors.Is(err, ErrModifierConflict) {
				t.Errorf("%s+%s: Validate = %v, want ErrModifierConflict", a.name, b.name, err)
				continue
			}
			if !strings.Contains(err.Error(), "got "+a.name+", "+b.name) {
				t.Errorf("%s+%s: error %q does not name both modifiers", a.name, b.name, err)
			}
			var rec recordingBackend
			if _, _, err := req.Run(context.Background(), &rec); !errors.Is(err, ErrModifierConflict) || rec.method != "" {
				t.Errorf("%s+%s: Run = %v after reaching %q, want ErrModifierConflict before any entry point", a.name, b.name, err, rec.method)
			}
		}
	}

	bad := []struct {
		name string
		req  Request
		want error
	}{
		{"theta 0", Request{Query: q, Theta: f(0)}, ErrBadThreshold},
		{"theta negative", Request{Query: q, Theta: f(-0.1)}, ErrBadThreshold},
		{"theta above 1", Request{Query: q, Theta: f(1.01)}, ErrBadThreshold},
		{"theta NaN", Request{Query: q, Theta: f(math.NaN())}, ErrBadThreshold},
		{"window negative", Request{Query: q, Window: &TimeWindow{From: -1, To: 10}}, ErrBadWindow},
		{"window past midnight", Request{Query: q, Window: &TimeWindow{From: 0, To: 86400}}, ErrBadWindow},
		{"mu negative", Request{Query: q, Diversify: &DiversifyOptions{Mu: -0.1}}, ErrBadDiversity},
		{"mu 1", Request{Query: q, Diversify: &DiversifyOptions{Mu: 1}}, ErrBadDiversity},
	}
	for _, tc := range bad {
		var rec recordingBackend
		if _, _, err := tc.req.Run(context.Background(), &rec); !errors.Is(err, tc.want) || rec.method != "" {
			t.Errorf("%s: Run = %v after reaching %q, want %v before any entry point", tc.name, err, rec.method, tc.want)
		}
	}
	// On a real Engine the named entry points and Request.Run are doors
	// onto the same pipeline: the same request gives the same results and
	// the same work counters, and a bad θ / window / μ meets the same
	// sentinel, whichever door it comes through.
	ctx := context.Background()
	direct := func(e *Engine, r Request) ([]Result, SearchStats, error) {
		switch {
		case r.Theta != nil:
			return e.SearchThresholdCtx(ctx, r.Query, *r.Theta)
		case r.Window != nil:
			return e.SearchWindowedCtx(ctx, r.Query, *r.Window)
		case r.OrderAware:
			return e.OrderAwareSearchCtx(ctx, r.Query)
		case r.Diversify != nil:
			return e.DiversifiedSearchCtx(ctx, r.Query, *r.Diversify)
		}
		return e.SearchCtx(ctx, r.Query)
	}
	e, fx := newTestEngine(t, Options{})
	rq := fx.randomQuery(rand.New(rand.NewPCG(91, 0)), 1, 3, 0.8, 4)
	reqs := []Request{{Query: rq}}
	for _, m := range single {
		req := Request{Query: rq}
		m.set(&req)
		reqs = append(reqs, req)
	}
	for _, req := range reqs {
		want, wantStats, err := direct(e, req)
		if err != nil {
			t.Fatalf("%s: named entry point: %v", req.Variant(), err)
		}
		got, gotStats, err := req.Run(ctx, e)
		if err != nil {
			t.Fatalf("%s: Run: %v", req.Variant(), err)
		}
		wantStats.Elapsed, gotStats.Elapsed = 0, 0
		if len(got) == 0 || !reflect.DeepEqual(got, want) || gotStats != wantStats {
			t.Errorf("%s: Run = (%d results, %+v), named entry point = (%d results, %+v)",
				req.Variant(), len(got), gotStats, len(want), wantStats)
		}
	}
	for _, tc := range bad {
		tc.req.Query = rq
		if _, _, err := direct(e, tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: named entry point = %v, want %v", tc.name, err, tc.want)
		}
		if _, _, err := tc.req.Run(ctx, e); !errors.Is(err, tc.want) {
			t.Errorf("%s: Run on the engine = %v, want %v", tc.name, err, tc.want)
		}
		if tc.req.Theta != nil {
			if _, _, err := e.ExhaustiveThresholdCtx(ctx, rq, *tc.req.Theta); !errors.Is(err, tc.want) {
				t.Errorf("%s: ExhaustiveThresholdCtx = %v, want %v", tc.name, err, tc.want)
			}
		}
	}

	// Boundary values that are valid.
	for name, req := range map[string]Request{
		"theta 1":          {Query: q, Theta: f(1)},
		"window 00:00":     {Query: q, Window: &TimeWindow{}},
		"diversify zeroes": {Query: q, Diversify: &DiversifyOptions{}},
	} {
		if err := req.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", name, err)
		}
	}
}
