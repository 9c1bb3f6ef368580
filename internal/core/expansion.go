package core

import (
	"context"
	"math"
	"sort"

	"uots/internal/obs"
	"uots/internal/pqueue"
	"uots/internal/trajdb"
)

// SearchCtx answers a top-k UOTS query with the expansion algorithm:
// incremental network expansion from every query location, exact textual
// scoring through the keyword inverted index, spatio-textual upper bounds
// on partly scanned and unseen trajectories, and early termination once no
// unexplored trajectory can beat the current k-th best. Results come back
// best-first.
//
// Ties at the k-th score are resolved toward smaller trajectory IDs, as
// in the exhaustive scan: every prune is strict (a bound below the bar),
// so a trajectory that ties the k-th score is always scored exactly.
//
// The expansion loop polls ctx at bounded intervals (every
// cancelPollEvery steps) and, once the context is cancelled or its
// deadline expires, stops within one poll interval and returns nil
// results, the stats of the work done so far, and ctx.Err().
func (e *Engine) SearchCtx(ctx context.Context, q Query) ([]Result, SearchStats, error) {
	return e.run(ctx, Request{Query: q}, AlgoExpansion)
}

// SearchThresholdCtx answers the threshold variant of the UOTS query:
// every trajectory with SimST ≥ theta, best-first. theta must be in
// (0, 1]; thresholds near 1 prune hardest. Cancellation is as in
// SearchCtx.
func (e *Engine) SearchThresholdCtx(ctx context.Context, q Query, theta float64) ([]Result, SearchStats, error) {
	return e.run(ctx, Request{Query: q, Theta: &theta}, AlgoExpansion)
}

// sortResults orders results best-first: descending score, ascending ID.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].Traj < rs[j].Traj
	})
}

// cand is the per-trajectory search state of one expansion query.
type cand struct {
	mask     uint64    // query sources that have scanned this trajectory
	dists    []float64 // exact distance per source (+Inf while unknown)
	sumExp   float64   // Σ over scanned sources of e^{−dᵢ/γ}
	text     float64   // exact textual similarity (known up front)
	complete bool      // scored exactly or pruned; no further updates
}

// expansionState holds one in-flight expansion search. Its arrays are
// the embedded scratch's, borrowed from the graph's pool for the request.
type expansionState struct {
	*scratch
	e       *Engine
	q       Query
	theta   float64 // threshold variant bar (0 in top-k mode)
	useTopK bool
	ordered bool // the top k holds ordered scores (order-aware sink)

	liveN    int
	allMask  uint64
	doneMask uint64

	keep func(trajdb.TrajID) bool // optional trajectory filter (nil accepts all)

	topk      *pqueue.TopK[Result]
	qualified []Result

	// Cross-partition bound exchange (nil outside sharded execution).
	// sharedBarred is set by bar() when the shared bound, not the local
	// threshold, was the binding constraint of the last call; localBar /
	// localBarOK capture the local threshold of that call so prunes can
	// be attributed to the exchange.
	shared       *SharedBound
	sharedBarred bool
	localBar     float64
	localBarOK   bool

	owed  uint64 // bit i: a candidate the last rescan kept, with a positive bound, is unscanned by source i
	rr    int
	steps int

	stats SearchStats

	trace    obs.Tracer // nil when the request is not traced
	lastPick int        // last source emitted as a scheduling decision

	cancel canceller // bounded-interval cancellation polls
	err    error     // cancellation seen by a poll: run's (checked first), initText's or a probe's
}

// newExpansionState prepares one expansion search on scr: top-k when
// theta is 0, otherwise the threshold variant. A non-nil keep is pushed
// into every access path: filtered trajectories never enter the textual
// bound, never trigger probes, and are scanned but never scored. ordered
// selects the order-aware sink (top-k mode only). Source i is the cursor
// of run i of scr's goal search, rooted at q.Locations; the probes and
// the ordered scorings step the same runs.
func newExpansionState(ctx context.Context, e *Engine, q Query, theta float64, keep func(trajdb.TrajID) bool, ordered bool, scr *scratch) *expansionState {
	st := &expansionState{
		scratch:  scr,
		e:        e,
		q:        q,
		cancel:   newCanceller(ctx),
		trace:    tracerFrom(ctx),
		lastPick: -1,
		theta:    theta,
		useTopK:  theta == 0,
		ordered:  ordered,
		keep:     keep,
		liveN:    len(q.Locations),
		allMask:  maskAll(len(q.Locations)),
	}
	for i := range q.Locations {
		st.live[i] = true
		st.radExp[i] = 1 // e^{−0/γ}
	}
	if st.useTopK {
		st.topk = pqueue.NewTopK[Result](q.K)
		st.shared = sharedBoundFrom(ctx)
	}
	st.initText()
	st.emit(TraceBegin, -1, -1, float64(len(q.Locations)), float64(e.db.NumTrajectories()), "")
	return st
}

func maskAll(n int) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// initText scores every trajectory sharing at least one query keyword —
// the only trajectories with non-zero textual similarity — and loads the
// ones keep accepts into the descending text heap that feeds the
// unseen-trajectory bound.
func (st *expansionState) initText() {
	if len(st.q.Keywords) == 0 {
		return
	}
	ix := st.e.db.TextIndex()
	docs := ix.DocsWithAny(st.q.Keywords)
	st.stats.TextScored = len(docs)
	for i, d := range docs {
		// Text scoring touches the store's keyword path per document, so
		// this pre-pass honours cancellation too; run() aborts on err
		// before expanding.
		if i%cancelPollEvery == 0 {
			if st.err = st.cancel.check(); st.err != nil {
				return
			}
		}
		id := trajdb.TrajID(d)
		s := st.e.textScore(st.q.Keywords, id)
		if s > 0 && (st.keep == nil || st.keep(id)) {
			st.text[id] = s
			st.textIDs = append(st.textIDs, id)
			st.textHeap.Push(s, id)
		}
	}
}

// bar returns the current pruning bar: exact scores strictly below it can
// never enter the result. ok is false while no bar exists yet (top-k not
// yet full). In sharded execution the bar is the better of the local
// top-k threshold and the cross-partition shared bound; candidates at
// exactly the bar always survive (strict-< prune), so the racy exchange
// never changes which results come back. With the order-aware sink the
// local threshold is the k-th ordered score, which every unordered upper
// bound still tests exactly: a trip's ordered score is at most its
// unordered one.
func (st *expansionState) bar() (float64, bool) {
	if !st.useTopK {
		return st.theta, true
	}
	local, ok := st.topk.Threshold()
	st.sharedBarred = false
	if st.shared != nil {
		if s, sok := st.shared.Load(); sok && (!ok || s > local) {
			st.sharedBarred = true
			st.localBar, st.localBarOK = local, ok
			return s, true
		}
	}
	return local, ok
}

func (st *expansionState) run() error {
	next := st.e.opts.relabelEvery // the step of the next rescan
	for st.liveN > 0 {
		if st.err == nil && st.steps%cancelPollEvery == 0 {
			st.err = st.cancel.check()
		}
		if st.err != nil {
			st.emit(TraceTerminate, -1, -1, 0, 0, TermCancelled)
			return st.err
		}
		i := st.pickSource()
		if i != st.lastPick {
			st.emit(TraceSourcePick, i, -1, st.goal.ScanRadius(i), 0, "")
			st.lastPick = i
		}
		v, d, settled, ok := st.goal.Scan(i)
		if !ok {
			st.markDone(i)
			continue
		}
		if settled { // a scan a probe or an earlier round ran ahead of is no settle
			st.stats.SettledVertices++
		}
		st.radExp[i] = st.e.kernel(d)
		bit := uint64(1) << i
		seen := st.seen[i*st.seenWords : (i+1)*st.seenWords]
		for _, tid := range st.e.db.TrajsAtVertex(v) {
			// A trip source i met before holds bit i in its mask or is
			// complete, and both are final: skip it on one bit test.
			w, b := tid>>6, uint64(1)<<(tid&63)
			if seen[w]&b != 0 {
				continue
			}
			seen[w] |= b
			c := st.candFor(tid)
			if c.complete {
				continue
			}
			c.mask |= bit
			c.dists[i] = d
			c.sumExp += st.radExp[i] // e^{−d/γ}: d is this source's current radius
			st.stats.ScanEvents++
			if c.mask|st.doneMask == st.allMask {
				st.complete(tid, c)
			}
		}
		st.steps++
		if st.steps < next || st.err != nil { // an ordered scoring saw a cancellation
			continue
		}
		if st.rescan() {
			st.stats.EarlyTerminated = true
			bar, _ := st.bar()
			st.emit(TraceTerminate, -1, -1, bar, 0, TermBound)
			return nil
		}
		next = st.steps + st.rescanGap()
	}
	if err := st.finalizeExhausted(); err != nil {
		st.emit(TraceTerminate, -1, -1, 0, 0, TermCancelled)
		return err
	}
	st.emit(TraceTerminate, -1, -1, 0, 0, TermExhausted)
	return nil
}

// candFor returns the candidate state for tid, creating it on first touch.
func (st *expansionState) candFor(tid trajdb.TrajID) *cand {
	if c := st.cands[tid]; c != nil {
		return c
	}
	c := st.newCand(len(st.q.Locations))
	for i := range c.dists {
		c.dists[i] = math.Inf(1)
	}
	c.text = st.text[tid]
	if st.keep != nil && !st.keep(tid) {
		c.complete = true // filtered out: scanned but never scored
	}
	st.cands[tid] = c
	st.admitted = append(st.admitted, tid)
	st.active = append(st.active, tid)
	st.stats.VisitedTrajectories++
	st.emit(TraceAdmit, -1, int64(tid), c.text, 0, "")
	return c
}

// complete scores a fully known candidate exactly and feeds the result
// sink. Distances that remained +Inf (source exhausted without reaching
// the trajectory) contribute 0 to the spatial similarity. The result's
// Dists alias c's slot of the scratch arena; candidates copies them out
// for the results that survive. The order-aware sink scores the trip
// again under the ordered similarity unless its unordered score, an
// upper bound on the ordered one, already falls below the k-th; a
// cancellation seen by that scoring is left in st.err.
func (st *expansionState) complete(tid trajdb.TrajID, c *cand) {
	c.complete = true
	st.stats.Candidates++
	spatial := st.e.spatialFromDists(c.dists)
	score := combine(st.q.Lambda, spatial, c.text)
	st.emit(TraceComplete, -1, int64(tid), score, spatial, "")
	res := Result{
		Traj:    tid,
		Score:   score,
		Spatial: spatial,
		Textual: c.text,
		Dists:   c.dists,
	}
	if st.useTopK {
		if st.ordered {
			if thr, full := st.topk.Threshold(); full && score < thr {
				return
			}
			if res, st.err = st.e.orderAwareResult(st.scratch, st.q, tid, c.dists, st.cancel, &st.stats); st.err != nil {
				return
			}
			st.emit(TraceRerank, -1, int64(tid), res.Score, score, "")
			score = res.Score
		}
		st.topk.Offer(score, int64(tid), res)
		if st.shared != nil {
			if thr, full := st.topk.Threshold(); full {
				st.shared.Raise(thr)
			}
		}
		return
	}
	if score >= st.theta {
		st.qualified = append(st.qualified, res)
	}
}

// markDone retires an exhausted query source: its radius bound becomes 0
// and candidates waiting only on it become complete.
func (st *expansionState) markDone(i int) {
	if !st.live[i] {
		return
	}
	st.live[i] = false
	st.liveN--
	st.radExp[i] = 0
	st.doneMask |= uint64(1) << i
	st.emit(TraceSourceDone, i, -1, st.goal.ScanRadius(i), 0, "")
	keep := st.active[:0]
	for _, tid := range st.active {
		c := st.cands[tid]
		if c.complete {
			continue
		}
		if c.mask|st.doneMask == st.allMask {
			st.complete(tid, c)
			continue
		}
		keep = append(keep, tid)
	}
	st.active = keep
}

// sumRad returns Σ over live sources of e^{−rᵢ/γ}.
func (st *expansionState) sumRad() float64 {
	var s float64
	for i, ok := range st.live {
		if ok {
			s += st.radExp[i]
		}
	}
	return s
}

// peekUnseenText returns the largest textual score among trajectories the
// expansion has not touched yet, discarding heap entries that have since
// become candidates (lazy deletion). Each iteration pops a stale entry,
// so the loop is bounded by the entries initText pushed.
func (st *expansionState) peekUnseenText() float64 {
	for {
		s, tid, ok := st.textHeap.Peek()
		if !ok {
			return 0
		}
		if st.cands[tid] == nil {
			return s
		}
		st.textHeap.Pop()
	}
}

// rescan is the periodic bound refresh: it prunes hopeless candidates,
// recomputes the global upper bound, runs adaptive text probes, records
// in st.owed which live sources kept candidates still wait on, and
// reports whether the search can terminate. A probe that observes
// cancellation stops it (st.err).
//
// Exactness: the radius part of a candidate's bound (rest, restFloor,
// pastFloor) depends only on its scan mask, and no radius or source
// changes during a rescan, so the sweep computes it once per distinct
// mask — summed over st.live in source order, exactly as a
// per-candidate sum would — and looks it up per candidate. The
// per-candidate bound expression, the order of st.active and the points
// where probes run are those of a per-candidate sweep, so every prune,
// probe and termination decision is bit-identical to it;
// testdata/stats.golden not moving is the check.
func (st *expansionState) rescan() bool {
	bar, haveBar := st.bar()
	lambda := st.q.Lambda
	nLoc := float64(len(st.q.Locations))
	sumRad := st.sumRad()

	// Adaptive text probe: when the unseen bound is blocked by a high
	// textual score rather than by expansion radii, resolve the blocking
	// trajectory's spatial distances directly instead of waiting for the
	// expansion to reach it.
	if haveBar {
		// Bounded by the text heap: every iteration pops a blocker, and
		// each probe polls ctx.
		for {
			textTop := st.peekUnseenText()
			if textTop == 0 {
				break
			}
			unseenSpatial := lambda * sumRad / nLoc
			if unseenSpatial >= bar || unseenSpatial+(1-lambda)*textTop < bar {
				break // spatial term blocks regardless, or nothing blocks
			}
			// Only resolve blockers that would still block once the
			// expansion radii reach the probe floor — cheaper blockers
			// clear themselves as the radii grow — and only once the
			// radii are actually there, so the pruning bar has matured.
			if lambda*st.probeFloor()+(1-lambda)*textTop < bar ||
				!st.radiiPastFloor() {
				break
			}
			// Unseen: probe's candFor admits it.
			_, tid, _ := st.textHeap.Pop()
			if st.probe(tid) != nil {
				return false
			}
			bar, _ = st.bar() // a bar, once set, only rises
		}
	}

	// Sweep candidates: prune, probe floor-resistant partial blockers,
	// find the max partial bound, record which sources are owed scans.
	// memo holds the radius part of a bound per scan mask, in the slot a
	// Fibonacci hash of the mask picks; a slot holding another mask is
	// recomputed and overwritten.
	var memo [64]maskRest
	floor := st.probeFloor()
	st.owed = 0
	maxPartial := math.Inf(-1)
	keep := st.active[:0]
	for _, tid := range st.active {
		c := st.cands[tid]
		if c.complete {
			continue
		}
		r := &memo[(c.mask*0x9e3779b97f4a7c15)>>58]
		if !r.ok || r.mask != c.mask {
			*r = st.restOf(c.mask, floor)
		}
		ub := lambda*(c.sumExp+r.rest)/nLoc + (1-lambda)*c.text
		if haveBar && ub < bar {
			st.prune(tid, c, ub, bar)
			continue
		}
		// Endgame resolution: once every radius this candidate still
		// waits on has grown past the probe floor, a candidate that
		// still blocks termination will not clear itself at acceptable
		// cost — resolve its remaining distances directly.
		if haveBar && r.pastFloor &&
			combine(lambda, (c.sumExp+r.restFloor)/nLoc, c.text) >= bar {
			if st.probe(tid) != nil {
				return false
			}
			bar, haveBar = st.bar()
			continue
		}
		keep = append(keep, tid)
		if ub > maxPartial {
			maxPartial = ub
		}
		if ub > 0 {
			st.owed |= ^c.mask
		}
	}
	st.active = keep

	unseenUB := lambda*sumRad/nLoc + (1-lambda)*st.peekUnseenText()
	ub := math.Max(maxPartial, unseenUB)
	if !haveBar {
		bar = -1 // TraceBound's "no bar yet"
	}
	st.emit(TraceBound, -1, -1, ub, bar, "")
	return haveBar && ub < bar
}

// rescanGap is the number of expansion steps from a rescan to the next:
// relabelEvery, or ⌈|active|/rescanDivisor⌉ when that is more, so a
// sweep over many kept candidates waits for expansion work in
// proportion. Cadence moves work, never answers: every prune and probe
// decision is exact at whatever step it is taken.
func (st *expansionState) rescanGap() int {
	gap := st.e.opts.relabelEvery
	if d := st.e.opts.rescanDivisor; d > 0 {
		gap = max(gap, (len(st.active)+d-1)/d)
	}
	return gap
}

// maskRest is the radius part of the bound of every candidate with scan
// mask mask: over the live sources it has not been scanned by, the sum
// of their kernels e^{−rᵢ/γ} (rest) and of the probe floor (restFloor),
// and whether every one of those radii is past the floor (pastFloor).
// ok marks a filled slot of rescan's table.
type maskRest struct {
	mask            uint64
	rest, restFloor float64
	pastFloor, ok   bool
}

func (st *expansionState) restOf(mask uint64, floor float64) maskRest {
	r := maskRest{mask: mask, pastFloor: true, ok: true}
	for i, ok := range st.live {
		if ok && mask&(uint64(1)<<i) == 0 {
			r.rest += st.radExp[i]
			r.restFloor += floor
			if st.radExp[i] > floor {
				r.pastFloor = false
			}
		}
	}
	return r
}

// prune completes c without a result: its bound ub fell below the bar.
func (st *expansionState) prune(tid trajdb.TrajID, c *cand, ub, bar float64) {
	c.complete = true
	note := ""
	if st.sharedBarred && (!st.localBarOK || ub >= st.localBar) {
		// The local threshold alone would not have pruned this candidate:
		// the cross-partition exchange did the work.
		st.stats.SharedBoundPrunes++
		note = NoteCrossShard
	}
	st.emit(TracePrune, -1, int64(tid), ub, bar, note)
}

// probe resolves one trajectory's missing distances and completes it, or
// prunes it once it provably cannot reach the bar. The distances come
// from the scratch's goal search, the request's one Dijkstra per query
// location, which the probe steps past the expansion's cursors
// (DESIGN.md, "Adaptive distance probes"). It steps the open run of
// least radius, the lower index on a tie. The score is bounded with the
// exact score's own expression, each open distance replaced by its
// run's radius, so the bound is at least the exact score in floating
// point too; after each such evaluation, probeSlack gives how far the
// open runs may grow before the bound can fall below the bar, and the
// runs are stepped with no kernel evaluated until one grows past it,
// hits the trip or exhausts. A skipped evaluation is one that provably
// would not prune, so every prune, settle and counter is that of an
// evaluation after every settle. It returns (and leaves in st.err) a
// cancellation.
func (st *expansionState) probe(tid trajdb.TrajID) error {
	c := st.candFor(tid)
	if c.complete {
		return nil
	}
	st.stats.Probes++
	st.emit(TraceProbe, -1, int64(tid), 0, 0, "")
	gs := st.goal
	gs.Target(st.e.db.UniqueVertices(tid))
	kern, open, base := st.kern, st.open, st.base
	clear(open) // every kern[i] is set below
	for i, d := range c.dists {
		// A scanned location holds its exact distance; an exhausted source
		// that never scanned tid leaves +Inf.
		if c.mask&(uint64(1)<<i) == 0 && st.live[i] {
			var known bool
			if d, known = gs.Known(i); known {
				c.dists[i] = d
			} else {
				open[i], d = true, gs.Radius(i)
			}
		}
		kern[i] = st.e.kernel(d)
	}
	bar, haveBar := st.bar()
	eval := haveBar      // the bound must be evaluated before the next settle
	slack := math.Inf(1) // without a bar nothing prunes
	var stale uint64     // runs stepped since the last evaluation
	for {
		// j is the run to step; m, the next open run in the pick order,
		// takes over once j's radius passes it.
		j, m := -1, -1
		for i, o := range open {
			switch {
			case !o:
			case j < 0 || gs.Radius(i) < gs.Radius(j):
				j, m = i, j
			case m < 0 || gs.Radius(i) < gs.Radius(m):
				m = i
			}
		}
		if j < 0 {
			break
		}
		if eval {
			sum := 0.0
			for i := range kern {
				if stale&(uint64(1)<<i) != 0 {
					kern[i] = st.e.kernel(gs.Radius(i)) // a hit's distance is the radius it hit at
				}
				sum += kern[i]
			}
			if ub := combine(st.q.Lambda, sum/float64(len(kern)), c.text); ub < bar {
				st.prune(tid, c, ub, bar)
				return nil
			}
			slack = probeSlack(sum, bar, st.q.Lambda, c.text, len(kern), st.e.opts.DistScale)
			for i, o := range open {
				if o {
					base[i] = gs.Radius(i)
				}
			}
			eval, stale = false, 0
		}
		for {
			if st.stats.ProbeSettled%cancelPollEvery == 0 {
				if st.err = st.cancel.check(); st.err != nil {
					return st.err
				}
			}
			d, hit, ok := gs.Step(j)
			if ok {
				st.stats.ProbeSettled++
				st.stats.SettledVertices++
			}
			stale |= uint64(1) << j
			if open[j] = ok && !hit; !open[j] {
				c.dists[j] = d
				eval = haveBar
				break
			}
			if !(d-base[j] <= slack) {
				eval = true
				break
			}
			if m >= 0 && (d > gs.Radius(m) || d == gs.Radius(m) && m < j) {
				break
			}
		}
	}
	st.complete(tid, c)
	return st.err
}

// probeMargin is the score the probe's slack keeps in hand against the
// rounding of the kernels, their sum, the bound and the slack itself.
// Each of those errs by a relative ~10⁻¹³ at most (an exponent of at
// most 745 rounded once, a sum of at most 64 terms, a logarithm of at
// most ~750 off by an ulp) on a spatial term of at most 1, so they move
// the bound by far less than 2⁻³².
const probeMargin = 0x1p-32

// probeSlack returns how far, in distance, each open run of a probe may
// grow from its radius at an evaluation whose kernels summed to sum, with
// the bound's exact expression still at least bar: combine(λ, S/n, text)
// stays at least bar while the kernel sum S stays at least
// k_c = (bar − (1−λ)·text)·n/λ, and growing every open radius by Δ at
// most scales the sum by e^{−Δ/γ}, so Δ = γ·ln(sum/k_c) is the slack in
// real numbers. k_c is taken at bar + probeMargin to cover rounding. It
// is +Inf when the text alone holds the bound above the bar, and
// negative (evaluate after every settle) when sum is already below k_c.
func probeSlack(sum, bar, lambda, text float64, nLoc int, gamma float64) float64 {
	kc := (bar + probeMargin - (1-lambda)*text) * float64(nLoc) / lambda
	if kc <= 0 {
		return math.Inf(1)
	}
	return gamma * math.Log(sum/kc)
}

// probeFloor is the spatial-kernel value at the radius the probe policy is
// willing to let the expansion grow to before it starts resolving textual
// blockers directly.
func (st *expansionState) probeFloor() float64 {
	return math.Exp(-st.e.opts.probeRadiusFactor)
}

// radiiPastFloor reports whether every live expansion radius has grown
// beyond the probe floor radius — the endgame signal that remaining
// blockers will not clear themselves at acceptable cost.
func (st *expansionState) radiiPastFloor() bool {
	floor := st.probeFloor()
	for i, ok := range st.live {
		if ok && st.radExp[i] > floor {
			return false
		}
	}
	return true
}

// pickSource chooses the query source to expand next.
func (st *expansionState) pickSource() int {
	switch st.e.opts.Scheduling {
	case ScheduleRoundRobin:
		for {
			st.rr = (st.rr + 1) % len(st.live)
			if st.live[st.rr] {
				return st.rr
			}
		}
	default: // ScheduleHeuristic
		// Among the sources that still owe scans to kept partly scanned
		// candidates (per st.owed of the last rescan), expand the one
		// with the smallest radius: it completes outstanding candidates
		// at the least settled-area cost. With none owed the unseen
		// bound dominates and plain min-radius shrinks it fastest.
		best, bestR := -1, math.Inf(1)
		for i, ok := range st.live {
			if ok && st.owed&(uint64(1)<<i) != 0 && st.goal.ScanRadius(i) < bestR {
				best, bestR = i, st.goal.ScanRadius(i)
			}
		}
		if best >= 0 {
			return best
		}
		return st.minRadiusSource()
	}
}

func (st *expansionState) minRadiusSource() int {
	best, bestR := -1, math.Inf(1)
	for i, ok := range st.live {
		if ok && st.goal.ScanRadius(i) < bestR {
			best, bestR = i, st.goal.ScanRadius(i)
		}
	}
	return best
}

// finalizeExhausted handles the no-early-termination case: every source
// exhausted its component. Spatially never-scanned trajectories (other
// components) still compete on their textual score alone — and when the
// top-k still has room, even zero-scoring trajectories fill the remaining
// slots (ascending ID, matching the exhaustive baseline's tie order).
// It returns the cancellation a poll or a completion saw (st.err).
func (st *expansionState) finalizeExhausted() error {
	for drained := 0; st.err == nil; drained++ {
		if drained%cancelPollEvery == 0 {
			if st.err = st.cancel.check(); st.err != nil {
				break
			}
		}
		_, tid, ok := st.textHeap.Pop()
		if !ok {
			break
		}
		if c := st.candFor(tid); !c.complete {
			st.complete(tid, c) // all dists +Inf: spatial 0
		}
	}
	// Every remaining trajectory is unreachable from all sources and
	// shares no query keyword: its exact score is exactly 0.
	for id := 0; st.err == nil && st.useTopK && id < st.e.db.NumTrajectories() && !st.topk.Full(); id++ {
		if id%4096 == 0 {
			if st.err = st.cancel.check(); st.err != nil {
				break
			}
		}
		if c := st.candFor(trajdb.TrajID(id)); !c.complete {
			st.complete(trajdb.TrajID(id), c)
		}
	}
	return st.err
}

// textOnly is the λ=0 candidate generator: the ranking is fully
// determined by the textual index; spatial distances are resolved only
// for the returned trajectories so the Result decomposition stays
// complete. theta and keep are as in candidates. scr's dense text table
// marks the trajectories the ranking scored, and its goal search
// resolves the returned ones' distances. With ordered, both scores are
// the textual one, so the text ranking is the ordered ranking too: each
// returned trip is scored under the ordered similarity for its spatial
// part.
func (e *Engine) textOnly(ctx context.Context, q Query, theta float64, keep func(trajdb.TrajID) bool, ordered bool, scr *scratch) ([]Result, SearchStats, error) {
	var stats SearchStats
	cancel := newCanceller(ctx)
	trace := tracerFrom(ctx)
	if trace != nil {
		trace.Emit(obs.SpanEvent{Kind: TraceBegin, Source: -1, Traj: -1,
			Value: float64(len(q.Locations)), Extra: float64(e.db.NumTrajectories()), Note: TermTextOnly})
		defer trace.Emit(obs.SpanEvent{Kind: TraceTerminate, Source: -1, Traj: -1, Note: TermTextOnly})
	}
	// Poll once up front: a threshold query without keywords touches no
	// trajectory below, and must still fail on a cancelled context.
	if err := cancel.check(); err != nil {
		return nil, stats, err
	}
	topk := pqueue.NewTopK[Result](q.K)
	var hits []Result
	if len(q.Keywords) > 0 {
		docs := e.db.TextIndex().DocsWithAny(q.Keywords)
		stats.TextScored = len(docs)
		stats.VisitedTrajectories = len(docs)
		for i, d := range docs {
			if i%cancelPollEvery == 0 {
				if err := cancel.check(); err != nil {
					return nil, stats, err
				}
			}
			id := trajdb.TrajID(d)
			if keep != nil && !keep(id) {
				continue
			}
			// Every document shares a query keyword, so its score is
			// positive and marks it scored for the fill below.
			text := e.textScore(q.Keywords, id)
			scr.text[id] = text
			scr.textIDs = append(scr.textIDs, id)
			r := Result{Traj: id, Score: text, Textual: text}
			if theta == 0 {
				topk.Offer(text, int64(id), r)
			} else if text >= theta {
				hits = append(hits, r)
			}
		}
	}
	if theta > 0 {
		sortResults(hits)
	} else {
		// Fill remaining slots with zero-score trajectories (smallest IDs
		// win the ties), so λ=0 agrees with the general algorithms on
		// result size.
		for id := 0; id < e.db.NumTrajectories() && !topk.Full(); id++ {
			if id%4096 == 0 {
				if err := cancel.check(); err != nil {
					return nil, stats, err
				}
			}
			tid := trajdb.TrajID(id)
			if scr.text[tid] == 0 && (keep == nil || keep(tid)) {
				topk.Offer(0, int64(id), Result{Traj: tid})
			}
		}
		hits = topk.Results()
	}
	stats.Candidates = len(hits)
	stats.EarlyTerminated = true

	// Each returned trajectory's distances come from the request's goal
	// search, one Dijkstra per location resumed from hit to hit.
	buf := make([]float64, len(hits)*len(q.Locations))
	for i := range hits {
		if err := cancel.check(); err != nil {
			return nil, stats, err
		}
		dists := buf[:len(q.Locations):len(q.Locations)]
		buf = buf[len(dists):]
		if ordered {
			r, err := e.orderAwareResult(scr, q, hits[i].Traj, dists, cancel, &stats)
			if err != nil {
				return nil, stats, err
			}
			if trace != nil {
				trace.Emit(obs.SpanEvent{Kind: TraceRerank, Source: -1, Traj: int64(r.Traj), Value: r.Score, Extra: hits[i].Score})
			}
			hits[i] = r
			continue
		}
		if err := e.resolveDists(scr.goal, hits[i].Traj, dists, cancel, &stats); err != nil {
			return nil, stats, err
		}
		hits[i].Dists = dists
		hits[i].Spatial = e.spatialFromDists(dists)
	}
	return hits, stats, nil
}
