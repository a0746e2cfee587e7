package cluster

import (
	"fmt"
	"math/rand"

	"repro/internal/eventq"
	"repro/internal/stats"
	"repro/internal/vclock"
	wspec "repro/internal/workload/spec"
)

// This file is the cluster's one driver. Every client-side action —
// arrivals, health probes, and the timeouts, retries and hedges of
// resilience.go — is a handler on one eventq.Queue, popped in (time,
// insertion seq) order by a single loop; handlers read the event time
// from the driver's clock, so the arrival and probe handlers are bound
// once and scheduling the next arrival allocates no closure.
//
// A run is tracked when anything can act on a request's outcome: a
// fault plan, health probes, a timeout, retries, hedging, a breaker or
// DegradedOver. A tracked run injects with Server.InjectTracked and,
// before every event, advances the worlds to the event time and folds
// their Completions into the client state machine. An untracked run
// injects fire-and-forget with Server.Inject and advances the worlds
// lazily: only before a least-loaded load snapshot and once after the
// last arrival, so blind routing queues every injection and lets each
// world catch up in bulk. Either way the worlds never observe the
// client and the client reads worlds only at barriers, so Spec.Shards
// stays invisible in the output.

const unhealthyLoad = 1 << 30 // poisons least-loaded away from ejected instances

type driver struct {
	c       *Cluster
	tracked bool
	health  *healthMonitor // nil unless ProbeEvery > 0
	brk     []breaker

	rng *rand.Rand    // arrival/identity/demand stream
	gap wspec.Sampler // Poisson gaps at Spec.Rate; the 1us floor keeps arrivals strictly increasing

	events  eventq.Queue // client events: arrivals, probes, timeouts, retries, hedges
	now     vclock.Time  // the driver's clock: the time of the event being handled
	barrier vclock.Time  // the instant every world has been advanced to
	arrival func()       // onArrival, bound once
	probe   func()       // onProbe, bound once

	tokens    map[uint64]*attempt
	nextToken uint64
	loads     []int

	left        int64 // arrivals not yet offered
	outstanding int64 // admitted, unresolved tracked requests

	offered, admitted, rejected     int64
	goodput, degraded, shed, failed int64

	retriesIssued, retriesDenied int64
	hedges, hedgeWins            int64
	timeouts, refused, lost      int64

	firstArrival vclock.Time
	lastResolve  vclock.Time

	clientP99 *stats.RunningQuantile   // successes, client-observed: hedge delay source
	phases    [3]stats.LatencyRecorder // indexed by phaseIdx(born)
}

// Run drives the fleet through its offered load and returns the
// aggregated summary. It may be called once per Cluster.
//
// Per live arrival the order of operations is fixed: clock gap,
// admission decision, user draw, service draw, route. Rejected requests
// consume no user or service draws, so the admitted subsequence's
// identities and demands do not depend on the admission policy.
func (c *Cluster) Run() (*Summary, error) {
	if c.ran {
		return nil, fmt.Errorf("cluster: Run called twice")
	}
	c.ran = true
	s := c.spec
	start := s.Start
	if start <= 0 {
		perPark := c.insts[0].w.Config().SwitchCost + 10*vclock.Microsecond
		start = vclock.Duration(s.Sessions)*perPark + 200*vclock.Millisecond
	}
	t0 := vclock.Time(0).Add(start)
	if rp := s.Replay; rp != nil && len(rp.Entries) > 0 && rp.Entries[0].AtUS < t0.Micros() {
		return nil, fmt.Errorf("cluster: replay entry 0 at %dus precedes the fleet's start at %dus",
			rp.Entries[0].AtUS, t0.Micros())
	}
	tracked := s.Faults != nil || s.ProbeEvery > 0 || s.Timeout > 0 || s.Retries > 0 ||
		s.HedgeAfter > 0 || s.BreakerAfter > 0 || s.DegradedOver > 0
	r := &driver{
		c:            c,
		tracked:      tracked,
		brk:          make([]breaker, len(c.insts)),
		rng:          rand.New(rand.NewSource(s.Seed)),
		gap:          (&wspec.Arrival{Process: wspec.ProcPoisson, Rate: s.Rate}).GapSampler(),
		now:          t0,
		barrier:      t0,
		tokens:       make(map[uint64]*attempt),
		loads:        make([]int, len(c.insts)),
		left:         s.Requests,
		firstArrival: vclock.Never,
		clientP99:    stats.NewRunningQuantile(0.99),
	}
	if s.Replay != nil {
		r.left = int64(len(s.Replay.Entries))
	}
	r.arrival, r.probe = r.onArrival, r.onProbe
	for i := range r.brk {
		r.brk[i] = breaker{after: s.BreakerAfter, openFor: s.BreakerOpenFor}
	}
	if s.ProbeEvery > 0 {
		r.health = newHealthMonitor(len(c.insts), s.FailAfter, s.RecoverAfter)
		r.events.Schedule(t0, r.probe)
	}
	stop := c.startShards()
	defer stop()
	c.faults.arm(c.insts)
	if r.left > 0 {
		r.events.Schedule(r.nextArrival(t0), r.arrival)
	}

	for {
		for {
			do, at, ok := r.events.PopDo()
			if !ok {
				break
			}
			r.now = at
			if r.tracked {
				r.advance(false)
				r.drainCompletions()
			}
			do()
		}
		if r.outstanding == 0 {
			break
		}
		// In-flight work with no scheduled client events (no timeouts
		// configured): let the fleet drain and fold in whatever lands.
		before := r.outstanding
		r.now = r.barrier.Add(s.Drain)
		r.advance(false)
		r.drainCompletions()
		if r.events.Empty() && r.outstanding == before {
			break // nothing in flight will ever land
		}
	}

	// Flush an untracked run's queued injections, close the pools
	// strictly after the last client action, and let the worlds quiesce.
	r.advance(!r.tracked)
	closeAt := r.barrier.Add(vclock.Microsecond)
	for _, in := range c.insts {
		srv := in.srv
		in.w.At(closeAt, srv.Close)
	}
	c.advanceAll(closeAt.Add(s.Drain))
	r.drainCompletions()

	// Anything still unresolved — queued behind a stall longer than the
	// drain, say — failed from the client's point of view.
	r.failed += r.outstanding
	r.outstanding = 0
	return r.summary(), nil
}

// advance runs every world to the driver's clock. Tracked runs call it
// before every event with again false, skipping an instant the worlds
// already reached. Untracked runs call it only before reading the
// worlds, with again true: re-running an instant already reached lets
// the injections queued at that instant land before the read.
func (r *driver) advance(again bool) {
	if again || r.now.After(r.barrier) {
		r.c.advanceAll(r.now)
		r.barrier = r.now
	}
}

// nextArrival is the instant of the arrival after one at t: the next
// trace entry's on replay, else t plus a Poisson gap.
func (r *driver) nextArrival(t vclock.Time) vclock.Time {
	if rp := r.c.spec.Replay; rp != nil {
		return vclock.Time(0).Add(vclock.Duration(rp.Entries[r.offered].AtUS))
	}
	return t.Add(r.gap(r.rng))
}

// onArrival offers one arrival at the driver's clock and schedules the
// next. A live arrival passes admission and then draws its user and
// service; a replayed one takes both from the trace and bypasses
// admission, since the trace holds only admitted arrivals.
func (r *driver) onArrival() {
	c := r.c
	r.offered++
	r.left--
	if rp := c.spec.Replay; rp != nil {
		e := &rp.Entries[r.offered-1]
		r.admitArrival(e.Session, vclock.Duration(e.ServiceUS))
	} else if c.admit.Admit(r.now) {
		user := c.drawUser(r.rng)
		r.admitArrival(user, c.drawService(r.rng))
	} else {
		r.rejected++
	}
	if r.left > 0 {
		r.events.Schedule(r.nextArrival(r.now), r.arrival)
	}
}

// admitArrival records one admitted arrival and sends it on: untracked
// straight into the routed instance's world, tracked as a new client
// request through dispatch.
func (r *driver) admitArrival(user int, service vclock.Duration) {
	t := r.now
	r.admitted++
	if r.firstArrival == vclock.Never {
		r.firstArrival = t
	}
	if rec := r.c.spec.Record; rec != nil {
		rec.Add(t, "", user, service)
	}
	if !r.tracked {
		in := r.c.insts[r.choose(user, -1)]
		in.routed++
		srv, sess := in.srv, user%r.c.spec.Sessions
		in.w.At(t, func() { srv.Inject(sess, service) })
		return
	}
	r.outstanding++
	r.dispatch(&creq{user: user, service: service, born: t, lastInst: -1}, -1, false)
}

func (r *driver) onProbe() {
	t := r.now
	r.health.probe(t, func(i int) bool {
		// A shallow probe sees crashes and stalls, not brownouts.
		return !r.c.faults.downAt(i, t) && !r.c.faults.stalledAt(i, t)
	})
	if r.left > 0 || r.outstanding > 0 {
		r.events.Schedule(t.Add(r.c.spec.ProbeEvery), r.probe)
	}
}

// choose picks the dispatch target: the base router's choice, failed
// over along the instance ring past ejected instances and open
// breakers, skipping `exclude` (the instance a retry or hedge is
// fleeing) unless it is the only healthy choice. Returns -1 when no
// instance is eligible; with no health monitor and no breaker it is
// the base router's choice.
func (r *driver) choose(user, exclude int) int {
	n := len(r.c.insts)
	var snapshot []int
	if r.c.route.NeedsLoads() {
		r.advance(!r.tracked)
		for i, in := range r.c.insts {
			r.loads[i] = in.srv.Pending()
			if !r.health.isHealthy(i) {
				r.loads[i] = unhealthyLoad
			}
		}
		snapshot = r.loads
	}
	base := r.c.route.Route(user, snapshot)
	// A rotation router's failover is to keep rotating: skipping an
	// ejected instance by ring-scan would dump its whole share onto the
	// ring successor, while burning a turn per skip spreads it evenly
	// over the healthy remainder. Stateless routers (affinity) re-home
	// by ring-scan below — the pinned user's deterministic fallback.
	if _, rotates := r.c.route.(*roundRobin); rotates {
		for tries := 0; tries < n && !r.health.isHealthy(base); tries++ {
			base = r.c.route.Route(user, snapshot)
		}
	}
	fallback := -1
	for d := 0; d < n; d++ {
		j := (base + d) % n
		if !r.health.isHealthy(j) {
			continue
		}
		if j == exclude {
			if fallback < 0 {
				fallback = j
			}
			continue
		}
		if r.brk[j].allow(r.now) {
			return j
		}
	}
	if fallback >= 0 && r.brk[fallback].allow(r.now) {
		return fallback
	}
	return -1
}

// summary builds the run's result. Aggregate percentiles are
// client-observed (born → answered) in a tracked run, so retries and
// hedges cannot launder the tail, and come from the merged server
// recorders in an untracked one, where every admitted request is served
// exactly once or not at all.
func (r *driver) summary() *Summary {
	c := r.c
	agg := &stats.LatencyRecorder{}
	var rows []InstanceSummary
	for _, in := range c.insts { // instance-ID order: reproducible
		ls := in.srv.Finish()
		if !r.tracked {
			r.goodput += ls.Completed
			agg.Merge(&ls.Latency)
			if in.srv.LastDone().After(r.lastResolve) {
				r.lastResolve = in.srv.LastDone()
			}
		}
		rows = append(rows, InstanceSummary{
			ID:         in.id,
			Routed:     in.routed,
			Completed:  ls.Completed,
			Throughput: ls.Throughput(),
			P50Us:      ls.Latency.Percentile(0.50).Micros(),
			P95Us:      ls.Latency.Percentile(0.95).Micros(),
			P99Us:      ls.Latency.Percentile(0.99).Micros(),
			MaxUs:      ls.Latency.Max().Micros(),
		})
	}
	if !r.tracked {
		// Admitted but never served: the drain was cut short.
		r.failed = r.admitted - r.goodput
	}
	sum := &Summary{
		Preset:      c.spec.Preset,
		Instances:   c.spec.Instances,
		Sessions:    c.spec.Sessions,
		Router:      c.spec.Router,
		Admission:   c.spec.Admission,
		Seed:        c.spec.Seed,
		Offered:     r.offered,
		Admitted:    r.admitted,
		Rejected:    r.rejected,
		Completed:   r.goodput + r.degraded,
		Goodput:     r.goodput,
		Degraded:    r.degraded,
		Shed:        r.shed,
		Failed:      r.failed,
		PerInstance: rows,
	}
	if r.tracked {
		sum.Resilience = r.resilience(agg)
	}
	if sum.Completed > 0 && r.lastResolve.After(r.firstArrival) {
		w := r.lastResolve.Sub(r.firstArrival)
		sum.WindowUs = w.Micros()
		sum.Throughput = float64(sum.Completed) / w.Seconds()
	}
	sum.P50Us = agg.Percentile(0.50).Micros()
	sum.P95Us = agg.Percentile(0.95).Micros()
	sum.P99Us = agg.Percentile(0.99).Micros()
	sum.MaxUs = agg.Max().Micros()
	return sum
}
