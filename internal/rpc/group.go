package rpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"uots/internal/core"
	"uots/internal/obs"
)

// GroupConfig tunes one partition's replica group.
type GroupConfig struct {
	// CallTimeout bounds each individual attempt (not the whole call —
	// every retry gets a fresh one). Zero means attempts run on the
	// caller's deadline alone.
	CallTimeout time.Duration
	// MaxAttempts is the total number of tries (initial + retries)
	// across the group before it reports exhaustion. Zero means 3.
	MaxAttempts int
	// ProbeInterval runs a background health prober at this period,
	// re-admitting ejected replicas that answer the probe. Zero disables
	// the prober (call ProbeAll directly, as the tests do).
	ProbeInterval time.Duration

	// backoff replaces defaultBackoff as the retry schedule (zero value =
	// defaultBackoff). Unexported: production has one schedule, and only
	// the in-package tests shrink it so their retries do not wait.
	backoff backoffConfig
}

const (
	// failureThreshold is the consecutive-transport-failure budget after
	// which a replica is ejected from rotation.
	failureThreshold = 3
	// probeTimeout bounds one health probe.
	probeTimeout = time.Second
	// jitterSeed seeds every group's backoff jitter rng, so a group's
	// retry schedule is reproducible.
	jitterSeed = 1
)

// Sentinel errors of the group layer.
var (
	// ErrNoReplicas rejects construction of an empty group.
	ErrNoReplicas = errors.New("rpc: replica group needs at least one replica")
	// ErrGroupClosed answers calls issued after Close.
	ErrGroupClosed = errors.New("rpc: replica group closed")
	// ErrWrongPartition marks a replica whose health answer names another
	// partition than the one its group was bound to (see Group.Bind).
	ErrWrongPartition = errors.New("rpc: replica serves another partition")
)

// replica is one backend plus its health state.
type replica struct {
	client   *Client
	counters replicaCounters

	mu          sync.Mutex
	consecFails int
	ejected     bool
	miswired    error // the last probe's identity verdict; non-nil refuses calls
}

// wiring returns the last probe's identity verdict: nil, or the
// transport-class error every call to a mis-wired replica fails with.
func (r *replica) wiring() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.miswired
}

func (r *replica) setWiring(err error) {
	r.mu.Lock()
	r.miswired = err
	r.mu.Unlock()
}

func (r *replica) isEjected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ejected
}

// noteFailure charges one transport-class failure against the error
// budget, reporting whether this failure tripped the ejection.
func (r *replica) noteFailure() (ejected bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consecFails++
	if !r.ejected && r.consecFails >= failureThreshold {
		r.ejected = true
		return true
	}
	return false
}

// noteSuccess resets the error budget, reporting whether it re-admitted
// an ejected replica.
func (r *replica) noteSuccess() (readmitted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consecFails = 0
	if r.ejected {
		r.ejected = false
		return true
	}
	return false
}

// partition is a shard server's identity: index shard of shards.
type partition struct{ shard, shards int }

// Group fans calls over one partition's replicas with retries and
// health-checked failover. Safe for concurrent use.
type Group struct {
	cfg      GroupConfig
	replicas []*replica
	metrics  *Metrics
	hc       *http.Client

	// bound is the identity Bind declared, nil while unbound. Atomic
	// because the background prober may already be running when the
	// owner binds the group.
	bound atomic.Pointer[partition]

	rngMu sync.Mutex
	rng   *rand.Rand

	next      atomic.Uint64 // round-robin cursor
	closed    atomic.Bool
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewGroup builds a replica group over the given base URLs. All
// replicas must serve the same shard (same partition of the same
// dataset) — the group assumes their answers are interchangeable. If
// cfg.ProbeInterval > 0 a background prober starts immediately; Close
// stops it.
func NewGroup(bases []string, cfg GroupConfig, m *Metrics) (*Group, error) {
	if len(bases) == 0 {
		return nil, ErrNoReplicas
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if (cfg.backoff == backoffConfig{}) {
		cfg.backoff = defaultBackoff
	}
	g := &Group{
		cfg:     cfg,
		metrics: m,
		hc:      &http.Client{},
		rng:     rand.New(rand.NewPCG(jitterSeed, jitterSeed)),
		stop:    make(chan struct{}),
	}
	for _, base := range bases {
		c := NewClient(base, g.hc)
		g.replicas = append(g.replicas, &replica{client: c, counters: m.forReplica(c.Base())})
	}
	if cfg.ProbeInterval > 0 {
		g.wg.Add(1)
		go g.prober()
	}
	return g, nil
}

// Bind declares the partition the group's replicas must serve — shard
// of shards, the identity every HealthResponse reports. The owner of a
// partition layout calls it (shard.NewRemoteExecutor: groups[i] is
// partition i of len(groups)). From then on a probe answer naming
// another partition is a failed probe, and the replica refuses calls
// until a later probe sees the right identity: a mis-wired replica
// answers searches perfectly well, with another partition's
// trajectories, so only its health answer can tell. An unbound group
// checks nothing.
func (g *Group) Bind(shard, shards int) {
	g.bound.Store(&partition{shard, shards})
}

// checkIdentity compares a health answer with the bound partition.
func (g *Group) checkIdentity(r *replica, h HealthResponse) error {
	want := g.bound.Load()
	if want == nil || *want == (partition{h.Shard, h.Shards}) {
		return nil
	}
	return &TransportError{Replica: r.client.Base(), Err: fmt.Errorf("%w: it reports partition %d of %d, the router expects %d of %d",
		ErrWrongPartition, h.Shard, h.Shards, want.shard, want.shards)}
}

// Close stops the health prober and releases idle connections. It is
// idempotent and safe to call concurrently with in-flight calls (those
// finish normally; new calls get ErrGroupClosed).
func (g *Group) Close() {
	g.closeOnce.Do(func() {
		g.closed.Store(true)
		close(g.stop)
		g.wg.Wait()
		g.hc.CloseIdleConnections()
	})
}

// prober periodically probes every replica, restoring ejected ones that
// recover. The loop polls g.stop so Close drains it promptly.
func (g *Group) prober() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.ProbeAll()
		}
	}
}

// ProbeAll health-checks every replica once: a failed probe counts
// against the replica's error budget (ejecting it at the threshold), a
// successful probe resets the budget and re-admits an ejected replica.
// An answer from the wrong partition (see Bind) is a failed probe; the
// returned error joins those identity mismatches and nothing else — an
// unreachable replica may yet come up right, a mis-wired one will not.
// The background prober calls this on its ticker, uotsserve once before
// it listens; tests call it directly for deterministic health
// transitions.
//
//uots:allow ctxflow -- probes run on the group's lifetime, not any caller's request; there is no inbound context to thread.
func (g *Group) ProbeAll() error {
	var miswired []error
	for _, r := range g.replicas {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		h, err := r.client.Health(ctx)
		cancel()
		if err == nil {
			err = g.checkIdentity(r, h)
			r.setWiring(err)
			if err != nil {
				miswired = append(miswired, err)
			}
		}
		if err != nil {
			r.counters.probeFailure()
			g.markFailure(nil, r)
			continue
		}
		g.markSuccess(nil, r)
	}
	return errors.Join(miswired...)
}

// markFailure charges one transport-class failure; an ejection lands in
// tr, the active request's trace (nil for probes, which run outside any
// request and show up in the uots_rpc_* counters only).
func (g *Group) markFailure(tr obs.Tracer, r *replica) {
	if r.noteFailure() {
		r.counters.ejection()
		emitRPC(tr, TraceEject, r.client.Base(), 0, 0)
	}
}

func (g *Group) markSuccess(tr obs.Tracer, r *replica) {
	if r.noteSuccess() {
		r.counters.readmission()
		emitRPC(tr, TraceReadmit, r.client.Base(), 0, 0)
	}
}

// pick chooses the next replica round-robin, preferring healthy ones
// and skipping exclude (the replica that just failed). With every
// replica ejected it still returns one — a last-resort attempt beats
// refusing to try — and returns nil only when exclusion leaves nothing.
func (g *Group) pick(exclude *replica) *replica {
	n := len(g.replicas)
	start := int(g.next.Add(1)-1) % n
	var fallback *replica
	for i := 0; i < n; i++ {
		r := g.replicas[(start+i)%n]
		if r == exclude {
			continue
		}
		if !r.isEjected() {
			return r
		}
		if fallback == nil {
			fallback = r
		}
	}
	return fallback
}

// delay serialises the jitter rng draw.
func (g *Group) delay(attempt int) time.Duration {
	g.rngMu.Lock()
	defer g.rngMu.Unlock()
	return g.cfg.backoff.Delay(attempt, g.rng)
}

// callOnce runs one attempt against one replica: per-attempt deadline,
// latency accounting, and failure classification. The caller's own
// context outcome (cancellation, deadline) never counts against the
// replica's health; an attempt-level timeout or transport failure does.
// Each attempt is counted once, under the Outcome* label of the branch
// it took. The returned duration is the attempt's wall-clock latency,
// for the per-hop attribution in attempt trace events.
func callOnce(g *Group, ctx context.Context, r *replica, do func(context.Context, *Client) (SearchResponse, error)) (SearchResponse, time.Duration, error) {
	actx := ctx
	cancel := func() {}
	if g.cfg.CallTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, g.cfg.CallTimeout)
	}
	defer cancel()
	var out SearchResponse
	var elapsed time.Duration
	// A replica the last probe found serving another partition is not
	// sent anything: the refusal takes the transport-failure path below,
	// so the ladder fails over and, with no replica left, exhausts into a
	// store fault.
	err := r.wiring()
	if err == nil {
		r.counters.request()
		sw := obs.Stopwatch()
		out, err = do(actx, r.client)
		elapsed = sw()
		r.counters.observe(elapsed.Seconds())
	}
	tr := obs.TracerFromContext(ctx)
	if err == nil {
		g.markSuccess(tr, r)
		r.counters.attempt(OutcomeOK)
		return out, elapsed, nil
	}
	var zero SearchResponse
	if cerr := ctx.Err(); cerr != nil {
		// The caller went away: the attempt's fate is the caller's
		// outcome, not the replica's fault.
		r.counters.attempt(OutcomeCanceled)
		return zero, elapsed, cerr
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		// The per-attempt deadline fired while the caller is still
		// alive: a tail-latency event, charged like any transport fault.
		err = &TransportError{Replica: r.client.Base(), Err: fmt.Errorf("attempt aborted: %w", err)}
	}
	outcome := classifyOutcome(err)
	if outcome == OutcomeTransport {
		g.markFailure(tr, r)
	}
	r.counters.attempt(outcome)
	return zero, elapsed, err
}

// callGroup is the full robustness ladder: bounded retries with backoff
// across the group. Each attempt is bracketed in the caller's trace by
// an issue event and an outcome event, both emitted from this one
// goroutine so the event order is deterministic. Transient failures
// rotate to the next replica; definitive answers (engine errors, the
// caller's own context) return immediately. Exhaustion surfaces as a
// store fault so the scatter-gather policy layer treats the partition as
// faulted. The returned string is the base URL of the replica that
// answered — the identity the remote span gets attributed to.
func callGroup(g *Group, ctx context.Context, do func(context.Context, *Client) (SearchResponse, error)) (SearchResponse, string, error) {
	var zero SearchResponse
	if g.closed.Load() {
		return zero, "", ErrGroupClosed
	}
	tr := obs.TracerFromContext(ctx)
	var lastErr error
	var lastTried *replica
	for attempt := 0; attempt < g.cfg.MaxAttempts; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return zero, "", cerr
		}
		if attempt > 0 {
			g.metrics.recordRetry()
			d := g.delay(attempt)
			emitRPC(tr, TraceRetry, "", float64(attempt), float64(d)/float64(time.Millisecond))
			if d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return zero, "", ctx.Err()
				}
			}
		}
		// Retries fail over: prefer any replica but the one that just
		// failed (a single-replica group has no choice but to re-try it).
		r := g.pick(lastTried)
		if r == nil {
			r = lastTried
		}
		lastTried = r
		base := r.client.Base()
		emitRPC(tr, TraceAttempt, base, float64(attempt), 0)
		out, elapsed, err := callOnce(g, ctx, r, do)
		ms := float64(elapsed) / float64(time.Millisecond)
		if err == nil {
			emitRPC(tr, TraceAttemptOK, base, 0, ms)
			return out, base, nil
		}
		emitRPC(tr, TraceAttemptErr, base+": "+classifyOutcome(err), 0, ms)
		if cerr := ctx.Err(); cerr != nil {
			return zero, "", cerr
		}
		if !IsTransient(err) {
			return zero, "", err
		}
		lastErr = err
	}
	g.metrics.recordGroupExhausted()
	emitRPC(tr, TraceExhausted, classifyOutcome(lastErr), float64(g.cfg.MaxAttempts), 0)
	return zero, "", fmt.Errorf("%w (%w): %w", ErrGroupExhausted, core.ErrStoreFault, lastErr)
}

// Search runs one search against the group with the full retry/failover
// ladder. When bound is non-nil the request carries the scatter's
// current global k-th bound as a pruning hint (re-read before every
// attempt, so retries start from the level the rest of the scatter has
// already reached) and the response's piggybacked shard
// threshold is folded back in.
//
// When the caller's context carries a tracer, the request asks the
// shard to record its own span (stamped with the context's trace ID)
// and the winning response's remote span is replayed into the caller's
// trace as a child bracket attributed to the serving replica.
func (g *Group) Search(ctx context.Context, req SearchRequest, bound *core.SharedBound) (SearchResponse, error) {
	tr := obs.TracerFromContext(ctx)
	if tr != nil {
		req.Trace = true
		req.TraceID = obs.TraceIDFromContext(ctx)
	}
	resp, winner, err := callGroup(g, ctx, func(ctx context.Context, c *Client) (SearchResponse, error) {
		if bound != nil {
			if v, ok := bound.Load(); ok {
				req.Bound = v
			}
		}
		return c.Search(ctx, req)
	})
	if err != nil {
		return SearchResponse{}, err
	}
	if bound != nil && resp.Bound != 0 {
		bound.Raise(resp.Bound)
	}
	if tr != nil {
		replaySpan(tr, winner, resp.Span, resp.SpanDropped)
	}
	return resp, nil
}
