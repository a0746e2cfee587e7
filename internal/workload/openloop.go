package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/internal/workload/spec"
)

// This file holds the one open-loop engine every arrival-driven spec kind
// compiles onto (echo, pipeline, mixed, slo, cohorts): the paper's general
// pump (§4) at server scale. Each cohort owns an arrival stream that
// injects requests on its own schedule, whether or not the system keeps
// up, into that cohort's session pool — a Server — so queueing delay
// shows up in the latency percentiles. An optional always-ready batch
// pool rides underneath until the horizon.
//
// Each stream draws from its own derived RNG (World.DeriveRand, not
// World.Rand: an open-loop generator is outside code driving the world,
// and drawing from the live world stream would entangle the arrival
// process with the SystemDaemon's victim choices). The per-arrival draw
// order is fixed — session pick, service demand, next gap — and a replay
// trace stands in for all three, so a recorded run replays
// byte-identically. What differs between kinds is data StartSpec
// compiles (stream names, thread names, priorities, start population,
// SLOs) plus one hook, the slo kind's stamping (Server.stamp); the
// engine never looks at the kind.

// OpenLoop is a started open-loop workload. All methods run in driver
// context, after the driving Run returns.
type OpenLoop struct {
	w       *sim.World
	streams []*stream
	live    int // streams still injecting; the pools close at zero
	tap     RequestTap
	threads int   // every thread the workload spawned
	stopped bool  // the horizon passed: batch workers exit
	chunks  int64 // the mixed kind's batch grains completed
	// batch holds the slo kind's per-chunk books under the "batch" class.
	batch SLOStats
}

// stream is one cohort's arrival process feeding its session pool.
type stream struct {
	label    string // the cohort label taps and per-class books see
	pool     *Server
	rng      *rand.Rand
	gap, svc spec.Sampler
	mod      []spec.Window
	slo      vclock.Duration // on-time target; 0 counts nothing on time
	requests int64
	injected int64
	replay   []spec.Entry
	next     func() // the scheduled arrival, built once per stream
}

func newOpenLoop(w *sim.World, tap RequestTap) *OpenLoop {
	return &OpenLoop{w: w, tap: tap, batch: SLOStats{
		Offered:   map[string]int64{},
		Completed: map[string]int64{},
		OnTime:    map[string]int64{},
	}}
}

// reserveMax caps the latency samples addStream reserves up front, so a
// spec declaring an enormous request count cannot demand the memory for
// it before a single request arrives.
const reserveMax = 1 << 20

// addStream registers a cohort's arrival stream. A non-nil replay drives
// the stream from the recorded entries — their count, instants, session
// picks and demands — with no RNG draws. The pool's latency recorder
// reserves room for the stream's declared requests, each of which books
// at most one sample.
func (l *OpenLoop) addStream(st *stream) {
	if st.replay != nil {
		st.requests = int64(len(st.replay))
	}
	st.pool.Stats.Latency.Grow(int(min(st.requests, reserveMax)))
	st.next = func() { l.arrive(st) }
	l.streams = append(l.streams, st)
	l.live++
}

// begin schedules each stream's first arrival — start from now, or under
// replay the stream's first recorded instant — in stream order.
func (l *OpenLoop) begin(start vclock.Duration) {
	for _, st := range l.streams {
		first := start
		if st.replay != nil {
			first = vclock.Duration(st.replay[0].AtUS)
		}
		l.w.After(first, st.next)
	}
}

// arrive injects one request (driver context) and schedules the next;
// after every stream's last request every pool closes, so sessions
// drain and exit and the world can quiesce.
func (l *OpenLoop) arrive(st *stream) {
	now := l.w.Now()
	var idx int
	var service vclock.Duration
	if st.replay != nil {
		e := &st.replay[st.injected]
		idx, service = e.Session, vclock.Duration(e.ServiceUS)
	} else {
		idx = st.rng.Intn(st.pool.Sessions())
		service = st.svc(st.rng)
	}
	st.pool.Inject(idx, service)
	st.injected++
	if l.tap != nil {
		l.tap(now, st.label, idx, service)
	}
	if st.injected < st.requests {
		l.w.After(st.nextGap(now), st.next)
		return
	}
	if l.live--; l.live == 0 {
		for _, st := range l.streams {
			st.pool.Close()
		}
	}
}

// nextGap returns the delay to the stream's next arrival: the recorded
// gap under replay, else a fresh draw scaled by 1/factor of the
// modulation in effect now (a window with factor 2 doubles the
// instantaneous rate), floored at the clock's 1us grain.
func (st *stream) nextGap(now vclock.Time) vclock.Duration {
	if st.replay != nil {
		return vclock.Time(0).Add(vclock.Duration(st.replay[st.injected].AtUS)).Sub(now)
	}
	gap := st.gap(st.rng)
	if f := spec.FactorAt(st.mod, now); f != 1 {
		gap = vclock.Duration(float64(gap) / f)
		if gap < vclock.Microsecond {
			gap = vclock.Microsecond
		}
	}
	return gap
}

// spawnBatch starts n always-ready background compute loops, each
// counting its chunk-sized grains until the horizon. They record no
// latency: their chunks per virtual second are the batch throughput.
func (l *OpenLoop) spawnBatch(n int, chunk vclock.Duration) {
	for i := 0; i < n; i++ {
		l.w.Spawn(fmt.Sprintf("batch-%d", i), sim.PriorityBackground, func(t *sim.Thread) any {
			for !l.stopped {
				t.Compute(chunk)
				l.chunks++
			}
			return nil
		})
	}
	l.threads += n
}

// spawnSLOBatch starts the slo kind's batch pool: like spawnBatch, but
// each worker carries the "batch" class and a perpetual service
// estimate of one grain (so SJF can rank it against finite sessions),
// and every chunk's latency is recorded against the target slo. A
// chunk's latency spans its start to its finish, so preemption while
// mid-grain — exactly what a promptness-oriented policy inflicts on the
// pool — shows up in the percentiles rather than vanishing into lost
// throughput.
func (l *OpenLoop) spawnSLOBatch(n int, chunk, slo vclock.Duration, prio sim.Priority) {
	b := &l.batch
	for i := 0; i < n; i++ {
		th := l.w.Spawn(fmt.Sprintf("slo-batch-%d", i), prio, func(t *sim.Thread) any {
			for !l.stopped {
				start := t.Now()
				b.Offered["batch"]++
				t.Compute(chunk)
				lat := t.Now().Sub(start)
				b.Completed["batch"]++
				b.Latency.Add("batch", lat)
				if lat <= slo {
					b.OnTime["batch"]++
				}
			}
			return nil
		})
		th.SetSLOClass("batch")
		th.SetServiceEstimate(chunk)
	}
	l.threads += n
}

// BatchChunks returns the number of batch grains the mixed kind's pool
// completed; divide by the horizon for batch throughput.
func (l *OpenLoop) BatchChunks() int64 { return l.chunks }

// Load returns the aggregate LoadStats over every cohort, windows
// stamped. A one-cohort workload's aggregate is its pool's own books,
// not a copy; several cohorts merge into a fresh aggregate with exact
// nearest-rank percentiles.
func (l *OpenLoop) Load() *LoadStats {
	if len(l.streams) == 1 {
		s := l.streams[0].pool.Finish()
		s.Threads = l.threads
		return s
	}
	agg := &LoadStats{Threads: l.threads}
	n := 0
	for _, st := range l.streams {
		n += st.pool.Stats.Latency.Count()
	}
	agg.Latency.Grow(n)
	var first, last vclock.Time
	for _, st := range l.streams {
		p := st.pool.Finish()
		if p.Offered > 0 && (agg.Offered == 0 || st.pool.First().Before(first)) {
			first = st.pool.First()
		}
		if last.Before(st.pool.LastDone()) {
			last = st.pool.LastDone()
		}
		agg.Offered += p.Offered
		agg.Completed += p.Completed
		agg.Latency.Merge(&p.Latency)
	}
	if agg.Completed > 0 {
		agg.Window = last.Sub(first)
	}
	return agg
}

// Finish returns the per-class books: one class per cohort that offered
// work, plus the slo kind's "batch" class. A cohort's on-time count is
// its completions within its slo_us.
func (l *OpenLoop) Finish() *SLOStats {
	s := &l.batch
	s.Threads = l.threads
	for _, st := range l.streams {
		p := &st.pool.Stats
		if p.Offered == 0 {
			continue
		}
		s.Offered[st.label] = p.Offered
		s.Completed[st.label] = p.Completed
		s.OnTime[st.label] = p.Latency.AtMost(st.slo)
		if p.Latency.Count() > 0 {
			s.Latency.Put(st.label, &p.Latency)
		}
	}
	return s
}

// SLOStats summarizes one run per class: each cohort by name, plus the
// slo kind's batch pool as "batch".
type SLOStats struct {
	// Threads is the total worker population (sessions plus batch).
	Threads int
	// Offered, Completed, and OnTime count requests (or batch chunks)
	// injected, served, and served within the class SLO.
	Offered   map[string]int64
	Completed map[string]int64
	OnTime    map[string]int64
	// Latency holds per-class end-to-end latency (arrival to completion,
	// queueing and preemption included).
	Latency stats.ClassLatency
}

// Classes lists every class that offered work, sorted — including
// classes that completed nothing.
func (s *SLOStats) Classes() []string {
	names := make([]string, 0, len(s.Offered))
	for name := range s.Offered {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Attainment returns the fraction of a class's offered work that
// completed within its SLO. Work offered but never completed counts
// against the class; a class that offered nothing is trivially attained.
func (s *SLOStats) Attainment(class string) float64 {
	off := s.Offered[class]
	if off == 0 {
		return 1
	}
	return float64(s.OnTime[class]) / float64(off)
}
