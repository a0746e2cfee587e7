package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/vclock"
	"repro/internal/workload/spec"
)

// This file is the single construction entry point: every workload —
// the W-series presets, the S-series SLO cohorts, the general cohort
// mix, and the cluster's per-instance server pools with their cedar/gvx
// background populations — is built by compiling a spec.Spec through
// StartSpec. Every arrival-driven kind compiles onto the one open-loop
// engine (openloop.go); what differs per kind is the data compiled here.
// Callers above this package (experiments, cluster, the CLI) describe
// load as data and come through here.

// RequestTap observes one injected request at injection time: the
// arrival instant, the cohort label, the target session index, and the
// drawn service demand. Taps run in driver context, in arrival order.
type RequestTap func(at vclock.Time, cohort string, session int, service vclock.Duration)

// SpecOptions carries the run-scoped knobs StartSpec accepts alongside
// the declarative spec.
type SpecOptions struct {
	// Record, when non-nil, accumulates every generated request into
	// the trace in arrival order.
	Record *spec.Trace
	// Replay, when non-nil, drives arrivals from the recorded trace
	// instead of the spec's arrival processes: same instants, same
	// session picks, same demands, no RNG draws. The trace must have
	// been recorded from a compatible spec (same cohort names, session
	// counts it fits inside), and every demand must be positive. A
	// pipeline entry's demand is the per-stage grain: stage 0 serves the
	// recorded value, the later stages the spec's stage_cost_us. Record
	// and Replay compose — re-recording a replayed run must reproduce
	// the trace byte-for-byte.
	Replay *spec.Trace
	// Names supplies the interned session-name table for the server
	// kind (the cluster shares one table across a fleet); nil builds a
	// private table.
	Names *NameTable
}

// SpecRun is a compiled, started workload.
type SpecRun struct {
	Spec *spec.Spec
	// Horizon is the recommended Run bound: the spec's declared horizon
	// or the historical derivation from its injection span.
	Horizon vclock.Duration

	// Open is the open-loop engine behind every arrival-driven kind; nil
	// for the server kind.
	Open *OpenLoop
	// SLO is Open again for the slo kind, whose callers read its
	// per-class books through SLO.Finish; nil for every other kind.
	SLO *OpenLoop
	// Server is the server kind's externally-driven pool; nil for every
	// other kind.
	Server *Server
}

// Load returns the run's aggregate LoadStats, windows stamped.
func (r *SpecRun) Load() *LoadStats {
	if r.Server != nil {
		return r.Server.Finish()
	}
	return r.Open.Load()
}

// StartSpec validates sp, builds its background preset population (if
// any), and spawns the workload for its kind into w. The world is the
// caller's: build it with the seed, hooks, policy, and SystemDaemon
// setting the run wants (sp.SystemDaemon is advisory for that last
// knob), then drive it with Run to run.Horizon.
func StartSpec(w *sim.World, sp *spec.Spec, opts SpecOptions) (*SpecRun, error) {
	if err := sp.Check(); err != nil {
		return nil, err
	}
	if sp.Background != "" && sp.Background != "w1-echo" {
		preset, err := FindPreset(sp.Background)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: background: %v", spec.ErrInvalidSpec, sp.Name, err)
		}
		if preset.Background != nil {
			preset.Background(w)
		}
	}
	run := &SpecRun{Spec: sp, Horizon: sp.Horizon()}
	if sp.Kind == spec.KindServer {
		if opts.Replay != nil {
			return nil, fmt.Errorf("%w: %s: the server kind is externally driven — replay lives in its driver", spec.ErrInvalidSpec, sp.Name)
		}
		c := &sp.Cohorts[0]
		names := opts.Names
		if names == nil {
			names = NewNameTable(c.Name, c.Sessions)
		}
		run.Server = StartServer(w, names, c.Sessions, c.SimPriority())
		return run, nil
	}
	replays, err := replayEntries(sp, opts.Replay)
	if err != nil {
		return nil, err
	}
	var tap RequestTap
	if opts.Record != nil {
		tap = opts.Record.Add
	}
	run.Open = startOpenLoop(w, sp, tap, replays)
	if sp.Kind == spec.KindSLO {
		run.SLO = run.Open
	}
	return run, nil
}

// startOpenLoop compiles an arrival-driven spec onto the engine: session
// pools cohort by cohort, then the batch pool, then each cohort's first
// arrival in spec order, then the horizon stop.
//
// The per-kind data: echo and mixed draw from "workload.echo" and name
// their sessions echo-i whatever the cohort is called (names feed the
// profiler's per-thread books and must not drift when a spec renames its
// one cohort); slo draws from "workload.slo.<cohort>" into sessions
// slo-<cohort>-i stamped with the cohort's class, deadline and service
// estimate; cohorts draws from "workload.cohort.<cohort>" into sessions
// <cohort>-i; the pipeline draws from "workload.pipeline" into its
// chains' stage 0. Mixed pins its sessions at PriorityHigh. The first
// arrival waits for every freshly spawned thread to run once (paying
// the switch cost) and park: mixed does not count its batch pool, slo
// does, and each pipeline thread is allowed 20us over the switch cost
// where the others get 10us.
func startOpenLoop(w *sim.World, sp *spec.Spec, tap RequestTap, replays map[string][]spec.Entry) *OpenLoop {
	l := newOpenLoop(w, tap)
	perThread := w.Config().SwitchCost + 10*vclock.Microsecond
	if p := sp.Pipeline; p != nil {
		cost := vclock.Duration(p.StageCostUS)
		if cost <= 0 {
			cost = 10 * vclock.Microsecond
		}
		l.addStream(&stream{label: "pipeline", pool: startPipeline(w, p, cost),
			rng: w.DeriveRand("workload.pipeline"),
			gap: (&spec.Arrival{Process: spec.ProcPoisson, Rate: p.Rate}).GapSampler(),
			svc: constSampler(cost), requests: p.Requests, replay: replays["pipeline"]})
		l.threads = p.Pipelines * p.Stages
		perThread += 10 * vclock.Microsecond
	}
	for _, c := range sp.Cohorts {
		rng, names, prio := "workload.echo", "echo", c.SimPriority()
		switch sp.Kind {
		case spec.KindMixed:
			prio = sim.PriorityHigh
		case spec.KindSLO:
			rng, names = "workload.slo."+c.Name, "slo-"+c.Name
		case spec.KindCohorts:
			rng, names = "workload.cohort."+c.Name, c.Name
		}
		if !prio.Valid() {
			prio = sim.PriorityNormal
		}
		pool := &Server{w: w}
		for i := 0; i < c.Sessions; i++ {
			pool.spawn(fmt.Sprintf("%s-%d", names, i), prio)
		}
		svc := constSampler(c.ServiceMean())
		if c.Service != nil {
			svc = c.Service.Sampler()
		}
		if sp.Kind == spec.KindSLO {
			stampSLO(pool, c)
		}
		l.addStream(&stream{label: c.Name, pool: pool, rng: w.DeriveRand(rng),
			gap: c.Arrival.GapSampler(), svc: svc, mod: c.Modulation,
			slo: vclock.Duration(c.SLOUS), requests: c.Requests, replay: replays[c.Name]})
		l.threads += c.Sessions
	}
	pop := l.threads
	if b := sp.Batch; b != nil {
		chunk := vclock.Duration(b.ChunkUS)
		if sp.Kind == spec.KindMixed {
			if chunk <= 0 {
				chunk = 200 * vclock.Microsecond
			}
			l.spawnBatch(b.Workers, chunk)
		} else {
			if chunk <= 0 {
				chunk = 5 * vclock.Millisecond
			}
			prio, _ := spec.ParsePriority(b.Priority)
			if !prio.Valid() {
				prio = sim.PriorityBackground
			}
			l.spawnSLOBatch(b.Workers, chunk, vclock.Duration(b.SLOUS), prio)
			pop = l.threads
		}
	}
	start := vclock.Duration(sp.StartUS)
	if start <= 0 {
		start = vclock.Duration(pop)*perThread + 100*vclock.Millisecond
	}
	l.begin(start)
	if sp.Kind == spec.KindMixed || sp.Kind == spec.KindSLO {
		// Stop the batch pool at the horizon, so a single Run(horizon)
		// suffices and Shutdown has little to unwind.
		w.At(vclock.Time(0).Add(sp.Horizon()), func() { l.stopped = true })
	}
	return l
}

// stampSLO gives an slo-kind cohort's sessions their class and makes
// the pool keep each session's scheduler-visible metadata current: the
// oldest pending request's deadline (for EDF) and the pending service
// demand (for SJF).
func stampSLO(pool *Server, c spec.Cohort) {
	for _, sess := range pool.sessions {
		sess.th.SetSLOClass(c.Name)
	}
	slo, unit := vclock.Duration(c.SLOUS), c.ServiceMean()
	pool.stamp = func(th *sim.Thread, pending []srvReq) {
		if len(pending) > 0 {
			th.SetDeadline(pending[0].born.Add(slo))
		} else {
			th.SetDeadline(0)
		}
		th.SetServiceEstimate(vclock.Duration(len(pending)) * unit)
	}
}

// constSampler draws nothing and always returns d.
func constSampler(d vclock.Duration) spec.Sampler {
	return func(*rand.Rand) vclock.Duration { return d }
}

// replayEntries validates a replay trace against the spec and splits it
// per cohort (the pipeline kind files under "pipeline"). Arrival times
// must be strictly increasing within a cohort — the engine floors gaps
// at one microsecond, so a recorded trace always satisfies this — and
// demands positive, as every sampler's are.
func replayEntries(sp *spec.Spec, tr *spec.Trace) (map[string][]spec.Entry, error) {
	if tr == nil {
		return nil, nil
	}
	pools := map[string]int{}
	switch sp.Kind {
	case spec.KindPipeline:
		pools["pipeline"] = sp.Pipeline.Pipelines
	default:
		for _, c := range sp.Cohorts {
			pools[c.Name] = c.Sessions
		}
	}
	out := make(map[string][]spec.Entry, len(pools))
	last := map[string]int64{}
	for i, e := range tr.Entries {
		n, ok := pools[e.Cohort]
		if !ok {
			return nil, fmt.Errorf("%w: %s: trace entry %d names cohort %q the spec does not declare", spec.ErrInvalidSpec, sp.Name, i, e.Cohort)
		}
		if e.Session >= n {
			return nil, fmt.Errorf("%w: %s: trace entry %d targets session %d of a %d-session pool %q", spec.ErrInvalidSpec, sp.Name, i, e.Session, n, e.Cohort)
		}
		if e.ServiceUS <= 0 {
			return nil, fmt.Errorf("%w: %s: trace entry %d: service demand must be > 0 (got %dus)", spec.ErrInvalidSpec, sp.Name, i, e.ServiceUS)
		}
		if prev, seen := last[e.Cohort]; seen && e.AtUS <= prev {
			return nil, fmt.Errorf("%w: %s: trace entry %d: cohort %q arrivals must be strictly increasing", spec.ErrInvalidSpec, sp.Name, i, e.Cohort)
		}
		last[e.Cohort] = e.AtUS
		out[e.Cohort] = append(out[e.Cohort], e)
	}
	for name := range pools {
		if len(out[name]) == 0 {
			return nil, fmt.Errorf("%w: %s: replay trace has no entries for cohort %q", spec.ErrInvalidSpec, sp.Name, name)
		}
	}
	return out, nil
}
