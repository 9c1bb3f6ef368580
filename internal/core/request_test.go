package core

import (
	"context"
	"errors"
	"math"
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
		{"orderAware", func(r *Request) { r.OrderAware = true }, "orderaware", false, "OrderAwareSearchCtx", nil},
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
