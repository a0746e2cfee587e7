package cluster

import (
	"cmp"
	"slices"

	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// This file is the client half of a tracked run (see driver.go): the
// state machine the driver runs over every admitted request when the
// spec asks for faults, health-aware routing, or any client-side
// resilience policy (timeout, retries, hedging, circuit breaking). Each
// attempt carries a token, each instance reports tracked Completions,
// and the client retries with capped backoff under a fleet-wide budget,
// hedges at the running p99 of successes, trips breakers, and
// classifies every admitted request into exactly one of goodput /
// degraded / shed / failed, so that
//
//	offered == rejected + shed + failed + degraded + goodput
//
// holds as an accounting identity, not a hope. ALL client state lives
// in the driver and changes only at advance barriers, in the order the
// driver pops events and drains Completions.

// --- circuit breaker -------------------------------------------------

type breakerState int

const (
	bkClosed breakerState = iota
	bkOpen
	bkHalfOpen
)

// breaker is one instance's client-side circuit breaker: closed until
// `after` consecutive failures, open for openFor, then half-open with a
// single trial in flight — success closes it, failure re-opens it. It
// is fed by request outcomes (timeouts, refusals, lost responses),
// unlike the health monitor, which is fed by probes; the two protect
// against different failure shapes and are deliberately independent.
type breaker struct {
	after   int // consecutive failures to open; 0 disables
	openFor vclock.Duration

	state      breakerState
	consecFail int
	openedAt   vclock.Time
	probing    bool

	opens     int64
	fastFails int64
}

// allow reports whether a dispatch to this instance may proceed, and
// counts a fast-fail when it may not. In half-open it admits exactly
// one trial at a time.
func (b *breaker) allow(now vclock.Time) bool {
	if b.after <= 0 {
		return true
	}
	switch b.state {
	case bkClosed:
		return true
	case bkOpen:
		if now.Sub(b.openedAt) >= b.openFor {
			b.state = bkHalfOpen
			b.probing = true
			return true
		}
		b.fastFails++
		return false
	default: // half-open
		if b.probing {
			b.fastFails++
			return false
		}
		b.probing = true
		return true
	}
}

// abandon releases a half-open trial slot whose attempt was cancelled
// (a hedge loser): the trial reported neither success nor failure, so
// the breaker must let another through rather than fast-fail forever.
func (b *breaker) abandon() {
	if b.state == bkHalfOpen {
		b.probing = false
	}
}

func (b *breaker) onSuccess() {
	if b.after <= 0 {
		return
	}
	b.state, b.consecFail, b.probing = bkClosed, 0, false
}

func (b *breaker) onFailure(now vclock.Time) {
	if b.after <= 0 {
		return
	}
	if b.state == bkHalfOpen {
		b.state, b.openedAt, b.probing = bkOpen, now, false
		b.opens++
		return
	}
	b.consecFail++
	if b.state == bkClosed && b.consecFail >= b.after {
		b.state, b.openedAt = bkOpen, now
		b.opens++
	}
}

// --- client request state --------------------------------------------

// creq is one admitted request as the client sees it, across every
// attempt (original, retries, hedge).
type creq struct {
	user    int
	service vclock.Duration
	born    vclock.Time

	resolved bool
	attempts int // dispatches routed (including refused ones)
	retries  int
	hedged   bool
	pending  int // live attempts in flight
	lastInst int
	live     []*attempt
}

// attempt is one dispatched copy of a request on one instance.
type attempt struct {
	req   *creq
	inst  int
	token uint64
	hedge bool
	done  bool
}

// --- the client state machine ----------------------------------------

// drainCompletions folds the instances' Completion buffers into the
// client state machine in (time, instance-ID) order — the only order
// that is independent of how worlds were dealt onto shards.
func (r *driver) drainCompletions() {
	all := r.drained[:0]
	for i, in := range r.c.insts { // instance-ID order
		for _, cp := range in.srv.Drain() {
			all = append(all, instCompletion{i, cp})
		}
	}
	slices.SortStableFunc(all, func(a, b instCompletion) int {
		if c := cmp.Compare(a.cp.At, b.cp.At); c != 0 {
			return c
		}
		return cmp.Compare(a.inst, b.inst)
	})
	for _, tc := range all {
		r.onCompletion(tc.inst, tc.cp)
	}
	r.drained = all
}

// instCompletion is one drained Completion tagged with its instance.
type instCompletion struct {
	inst int
	cp   workload.Completion
}

func (r *driver) onCompletion(inst int, cp workload.Completion) {
	att := r.tokens[cp.Token]
	delete(r.tokens, cp.Token)
	if att == nil || att.done {
		return // timed out, cancelled, or the request already resolved
	}
	att.done = true
	att.req.pending--
	if cp.OK {
		r.brk[inst].onSuccess()
		if !att.req.resolved {
			r.resolve(att.req, att, cp.At)
		}
		return
	}
	// The instance crashed between admission and response.
	r.lost++
	r.brk[inst].onFailure(cp.At)
	r.attemptFailed(att.req, cp.At)
}

// resolve closes a request as a success, classifies it, and cancels
// any sibling attempts still in flight (the hedge loser).
func (r *driver) resolve(req *creq, winner *attempt, tc vclock.Time) {
	req.resolved = true
	r.outstanding--
	lat := tc.Sub(req.born)
	if req.attempts > 1 || (r.c.spec.DegradedOver > 0 && lat > r.c.spec.DegradedOver) {
		r.degraded++
	} else {
		r.goodput++
	}
	if winner.hedge {
		r.hedgeWins++
	}
	r.clientP99.Add(lat)
	r.phases[r.c.faults.phaseIdx(req.born)].Add(lat)
	if tc.After(r.lastResolve) {
		r.lastResolve = tc
	}
	for _, a := range req.live {
		if a == winner || a.done {
			continue
		}
		a.done = true
		req.pending--
		// Driver context at a barrier: safe to touch server state
		// directly. If the loser is still queued it dies unserved; if it
		// already started computing, its completion arrives token-less
		// and is dropped above.
		r.c.insts[a.inst].srv.CancelQueued(a.token)
		r.brk[a.inst].abandon()
		delete(r.tokens, a.token)
	}
}

// attemptFailed is the common tail of every failed attempt: retry if
// the policy and the fleet-wide budget allow, otherwise fail the
// request once nothing else is in flight for it.
func (r *driver) attemptFailed(req *creq, now vclock.Time) {
	if req.resolved {
		return
	}
	s := r.c.spec
	if req.retries < s.Retries {
		if r.budgetAllows() {
			r.retriesIssued++
			req.retries++
			at := now.Add(r.backoff(req.retries))
			if at.Before(r.barrier) {
				at = r.barrier
			}
			r.events.Schedule(at, func() { r.onRetry(req) })
			return
		}
		r.retriesDenied++
	}
	if req.pending == 0 {
		req.resolved = true
		r.outstanding--
		r.failed++
	}
}

// budgetAllows checks the fleet-wide retry budget: retries may be at
// most RetryBudget × offered-so-far. This is the retry-storm valve —
// per-request retry counts multiply under fleet-wide overload, a
// fleet-wide fraction cannot.
func (r *driver) budgetAllows() bool {
	s := r.c.spec
	if s.RetryBudget <= 0 {
		return true
	}
	return float64(r.retriesIssued+1) <= s.RetryBudget*float64(r.offered)
}

// backoff returns the capped exponential backoff before retry n (1-based).
func (r *driver) backoff(n int) vclock.Duration {
	s := r.c.spec
	d := s.RetryBackoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= s.RetryBackoffCap {
			return s.RetryBackoffCap
		}
	}
	return min(d, s.RetryBackoffCap)
}

// hedgeDelay is how long the client waits before duplicating a request:
// the exact nearest-rank p99 of successes so far, floored at
// HedgeAfter, which stands alone until 20 successes have landed.
func (r *driver) hedgeDelay() vclock.Duration {
	d := r.c.spec.HedgeAfter
	if r.clientP99.Count() >= 20 {
		if p := r.clientP99.Value(); p > d {
			d = p
		}
	}
	return d
}

// --- event handlers: each runs at the driver's clock r.now ------------

func (r *driver) onTimeout(att *attempt) {
	if att.done || att.req.resolved {
		return
	}
	att.done = true
	att.req.pending--
	r.timeouts++
	r.brk[att.inst].onFailure(r.now)
	r.c.insts[att.inst].srv.CancelQueued(att.token)
	delete(r.tokens, att.token)
	r.attemptFailed(att.req, r.now)
}

func (r *driver) onRetry(req *creq) {
	if req.resolved {
		return
	}
	r.dispatch(req, req.lastInst, false)
}

func (r *driver) onHedge(req *creq) {
	if req.resolved || req.hedged || req.pending == 0 {
		// Already answered, already hedged, or the primary failed
		// outright — the retry path owns recovery from failure; hedging
		// only shaves the slow-success tail.
		return
	}
	req.hedged = true
	r.dispatch(req, req.lastInst, true)
}

// --- dispatch --------------------------------------------------------

// dispatch sends one attempt of req — the original, a retry or a hedge —
// to the instance choose picks, at the driver's clock.
func (r *driver) dispatch(req *creq, exclude int, hedge bool) {
	now := r.now
	inst := r.choose(req.user, exclude)
	if inst < 0 {
		if hedge {
			return // opportunistic; the primary is still in flight
		}
		if req.pending > 0 {
			return // something else is still in flight for this request
		}
		req.resolved = true
		r.outstanding--
		if req.attempts == 0 {
			r.shed++ // never dispatched anywhere
		} else {
			r.failed++
		}
		return
	}
	req.attempts++
	req.lastInst = inst
	in := r.c.insts[inst]
	in.routed++
	if r.c.faults.downAt(inst, now) {
		// Connection refused: instant failure, no service consumed. This
		// is what feeds the breaker fastest — and what the D1 control
		// (no health monitor) keeps paying for.
		r.refused++
		r.brk[inst].onFailure(now)
		if hedge {
			return
		}
		r.attemptFailed(req, now)
		return
	}
	if hedge {
		r.hedges++
	}
	svc := req.service
	if f := r.c.faults.degradeAt(inst, now); f > 1 {
		svc = vclock.Duration(float64(svc) * f)
	}
	tok := r.nextToken
	r.nextToken++
	att := &attempt{req: req, inst: inst, token: tok, hedge: hedge}
	r.tokens[tok] = att
	req.live = append(req.live, att)
	req.pending++
	srv, sess := in.srv, req.user%r.c.spec.Sessions
	in.w.At(now, func() { srv.InjectTracked(sess, svc, tok) })
	if r.c.spec.Timeout > 0 {
		r.events.Schedule(now.Add(r.c.spec.Timeout), func() { r.onTimeout(att) })
	}
	if !hedge && !req.hedged && req.attempts == 1 && r.c.spec.HedgeAfter > 0 {
		r.events.Schedule(now.Add(r.hedgeDelay()), func() { r.onHedge(req) })
	}
}

// --- summary ---------------------------------------------------------

// resilience builds the tracked run's mechanism ledger and merges the
// client-observed phase recorders into agg, the run's aggregate.
func (r *driver) resilience(agg *stats.LatencyRecorder) *ResilienceSummary {
	res := &ResilienceSummary{
		Timeouts:      r.timeouts,
		Retries:       r.retriesIssued,
		RetriesDenied: r.retriesDenied,
		Hedges:        r.hedges,
		HedgeWins:     r.hedgeWins,
		Refused:       r.refused,
		Lost:          r.lost,
	}
	for i := range r.brk {
		res.BreakerOpens += r.brk[i].opens
		res.BreakerFastFails += r.brk[i].fastFails
	}
	if r.health != nil {
		res.Ejections = r.health.ejections
		res.Readmissions = r.health.readmissions
		res.RecoveryUs = r.health.ttrMax.Micros()
	}
	// Phase slices carry the before/during/after story.
	for i := range r.phases {
		ph := &r.phases[i]
		if ph.Count() == 0 {
			continue
		}
		agg.Merge(ph)
		res.Phases = append(res.Phases, PhaseSummary{
			Phase: phaseNames[i],
			Count: int64(ph.Count()),
			P50Us: ph.Percentile(0.50).Micros(),
			P95Us: ph.Percentile(0.95).Micros(),
			P99Us: ph.Percentile(0.99).Micros(),
			MaxUs: ph.Max().Micros(),
		})
	}
	return res
}
