package main

import (
	"bytes"
	"embed"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/paradigm"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workload"
	"repro/internal/workload/spec"
)

// workloadNames lists the workloads in presentation order.
var workloadNames = []string{"desktop", "server", "fleet", "trace-analysis"}

// workloads maps a workload name to one repetition of it.
var workloads = map[string]func(r *rep){
	"desktop":        runDesktop,
	"server":         runServer,
	"fleet":          runFleet,
	"trace-analysis": runTraceAnalysis,
}

// desktopWindow is the measured virtual window of every desktop world,
// after workload.DefaultRunConfig's warm-up.
func desktopWindow(b *bench) vclock.Duration {
	return size(b, 30*vclock.Second, 1*vclock.Second)
}

// runDesktop runs the twelve Cedar and GVX worlds of Tables 1–3. It makes
// the calls workload.Run makes, one span per call: the world with its
// stats.Collector sink, the benchmark's Build, Run to the window's end,
// Collector.Finish and Shutdown. It is a copy, so it must follow
// workload.Run: a change there does not show in the desktop figures until
// it is repeated here. TestDesktopFollowsWorkloadRun fails when
// workload.Run's code changes, and TestDesktopMatchesWorkloadRun checks
// that both compute the same outputs.
func runDesktop(r *rep) {
	rc := workload.DefaultRunConfig()
	rc.Seed = r.b.seed
	rc.Window = desktopWindow(r.b)
	from := vclock.Time(0).Add(rc.Warmup)
	end := from.Add(rc.Window)
	for _, bm := range workload.AllBenchmarks() {
		r.attempt("desktop/"+bm.System+"/"+bm.Name, func(o *op) {
			col := stats.NewCollector(from, end)
			var w *sim.World
			r.span("sim.NewWorld", PhaseSetup, func() {
				w = sim.NewWorld(sim.Config{Trace: col, Seed: rc.Seed, CPUs: rc.CPUs,
					Hooks: r.hooks(), SystemDaemon: true})
			})
			defer r.span("sim.World.Shutdown", PhaseTeardown, w.Shutdown)
			reg := paradigm.NewRegistry()
			r.span("workload.Benchmark.Build", PhaseSetup, func() { bm.Build(w, reg) })
			r.layer["sim.live_threads"] += float64(w.LiveThreads())
			var out sim.Outcome
			r.span("sim.World.Run", PhaseTimed, func() { out = w.Run(end) })
			var a *stats.Analysis
			r.span("stats.Collector.Finish", PhaseSummary, func() { a = col.Finish(w.Now()) })

			o.set("events", w.EventsProcessed())
			o.set("virtual_us", w.Now().Micros())
			o.set("forks", int64(a.Forks))
			o.set("switches", int64(a.Switches))
			o.set("waits", int64(a.WaitDones))
			o.set("wait_timeouts", int64(a.WaitTimeouts))
			o.set("ml_enters", int64(a.MLEnters))
			o.set("ml_contended", int64(a.MLContended))
			o.expect(out == sim.OutcomeHorizon, "run ended %v, want horizon", out)
			o.expect(w.Now() == end, "clock %v, want %v", w.Now(), end)
			o.expect(a.WaitTimeouts <= a.WaitDones && a.MLContended <= a.MLEnters,
				"analysis counts inconsistent: %d/%d timeouts, %d/%d contended",
				a.WaitTimeouts, a.WaitDones, a.MLContended, a.MLEnters)
		})
	}
}

//go:embed specs/*.json
var specFS embed.FS

// sloPolicy is the dispatch policy the slo spec runs under, so the sched
// layer's decision points are exercised too.
const sloPolicy = "edf"

// serverSpec is one open-loop spec of the server workload.
type serverSpec struct {
	name  string
	load  func() (*spec.Spec, error)
	drain bool // every offered request completes within the horizon
}

func shipped(name string) func() (*spec.Spec, error) {
	return func() (*spec.Spec, error) { return spec.Shipped(name) }
}

func embedded(file string) func() (*spec.Spec, error) {
	return func() (*spec.Spec, error) {
		data, err := specFS.ReadFile("specs/" + file)
		if err != nil {
			return nil, err
		}
		return spec.Parse(data)
	}
}

var serverSpecs = []serverSpec{
	{name: "w1", load: shipped("w1"), drain: true},
	{name: "w2", load: shipped("w2"), drain: true},
	{name: "w3", load: shipped("w3"), drain: true},
	{name: "cohorts", load: embedded("cohorts.json")},
	{name: "slo", load: embedded("slo.json")},
}

// shrink scales a spec's offered load down for smoke tests.
func shrink(sp *spec.Spec) {
	if p := sp.Pipeline; p != nil {
		p.Pipelines, p.Requests = 4, 200
	}
	for i := range sp.Cohorts {
		c := &sp.Cohorts[i]
		c.Sessions = min(c.Sessions, 32)
		c.Requests = min(c.Requests, 200)
	}
	if sp.HorizonUS > 0 {
		h := vclock.Second
		for _, c := range sp.Cohorts {
			if c.Arrival != nil && c.Arrival.Rate > 0 {
				h = max(h, vclock.Duration(2*float64(c.Requests)/c.Arrival.Rate*1e6)+vclock.Second)
			}
		}
		sp.HorizonUS = min(sp.HorizonUS, h.Micros())
	}
}

// runServer compiles each open-loop spec through workload.StartSpec into
// its own world and runs it to the spec's horizon.
func runServer(r *rep) {
	for _, ss := range serverSpecs {
		r.attempt("server/"+ss.name, func(o *op) {
			sp, err := ss.load()
			if err != nil {
				o.fail("spec: %v", err)
				return
			}
			if r.b.tiny {
				shrink(sp)
			}
			cfg := sim.Config{Seed: r.b.seed, SystemDaemon: sp.SystemDaemon, Hooks: r.hooks()}
			if sp.Kind == spec.KindSLO {
				cfg.Hooks.Policy = sched.MustParse(sloPolicy)
			}
			var w *sim.World
			r.span("sim.NewWorld", PhaseSetup, func() { w = sim.NewWorld(cfg) })
			defer r.span("sim.World.Shutdown", PhaseTeardown, w.Shutdown)
			var run *workload.SpecRun
			r.span("workload.StartSpec", PhaseSetup, func() {
				run, err = workload.StartSpec(w, sp, workload.SpecOptions{})
			})
			if err != nil {
				o.fail("StartSpec: %v", err)
				return
			}
			r.layer["sim.live_threads"] += float64(w.LiveThreads())
			var out sim.Outcome
			r.span("sim.World.Run", PhaseTimed, func() { out = w.Run(vclock.Time(0).Add(run.Horizon)) })

			var offered, completed int64
			var lat *stats.LatencyRecorder
			r.span("stats.finish", PhaseSummary, func() {
				if run.SLO != nil {
					s := run.SLO.Finish()
					lat = &stats.LatencyRecorder{}
					for _, c := range sp.Cohorts {
						offered += s.Offered[c.Name]
						completed += s.Completed[c.Name]
						o.set("on_time/"+c.Name, s.OnTime[c.Name])
						if cl := s.Latency.Class(c.Name); cl != nil {
							lat.Merge(cl)
						}
					}
					o.set("batch_chunks", s.Completed["batch"])
				} else {
					s := run.Load()
					offered, completed, lat = s.Offered, s.Completed, &s.Latency
				}
				o.set("p50_us", lat.Percentile(0.5).Micros())
				o.set("p99_us", lat.Percentile(0.99).Micros())
				o.set("max_us", lat.Max().Micros())
			})
			r.layer["workload.offered"] += float64(offered)
			r.layer["workload.completed"] += float64(completed)

			o.set("events", w.EventsProcessed())
			o.set("virtual_us", w.Now().Micros())
			o.set("offered", offered)
			o.set("completed", completed)
			o.set("outcome", int64(out))
			o.expect(out != sim.OutcomeDeadlock, "run ended in deadlock")
			o.expect(offered == specRequests(sp), "offered %d, spec asks %d", offered, specRequests(sp))
			o.expect(completed <= offered, "completed %d > offered %d", completed, offered)
			o.expect(!ss.drain || completed == offered, "completed %d of %d", completed, offered)
			o.expect(int64(lat.Count()) == completed, "%d latency samples for %d completions", lat.Count(), completed)
			o.expect(lat.Percentile(0.5) <= lat.Percentile(0.99) && lat.Percentile(0.99) <= lat.Max(),
				"percentiles out of order")
		})
	}
}

// specRequests is the offered load a spec declares (batch chunks aside).
func specRequests(sp *spec.Spec) int64 {
	if sp.Pipeline != nil {
		return sp.Pipeline.Requests
	}
	var n int64
	for _, c := range sp.Cohorts {
		n += c.Requests
	}
	return n
}

// fleetShards is the cluster advance parallelism: at most the benchmark's
// GOMAXPROCS of 2.
const fleetShards = 2

// fleetSpecs are the two cedar-preset fleets: token-bucket admission at
// about 2x overload on the fire-and-forget driver (shaped like C3), and a
// stalled instance under timeouts, budgeted retries, hedging and a
// breaker on the resilient driver (shaped like D2).
func fleetSpecs(b *bench) []struct {
	name string
	spec cluster.Spec
} {
	admission := cluster.Spec{
		Preset: "cedar", Instances: 4, Sessions: 16, Router: cluster.RouteRoundRobin,
		Admission: cluster.AdmitTokenBucket, TokenRate: 6000, TokenBurst: 50,
		Requests: size[int64](b, 96_000, 600), Rate: 16_000, Service: 500 * vclock.Microsecond,
		Drain: size(b, 20*vclock.Second, vclock.Second),
	}
	stall := cluster.Spec{
		Preset: "cedar", Instances: 4, Sessions: 16, Router: cluster.RouteRoundRobin,
		Requests: size[int64](b, 12_000, 600), Rate: 20_000, Service: 100 * vclock.Microsecond,
		Start:   200 * vclock.Millisecond,
		Timeout: 10 * vclock.Millisecond, Retries: 2, RetryBackoff: 500 * vclock.Microsecond,
		RetryBudget: 0.2, BreakerAfter: 5, BreakerOpenFor: 10 * vclock.Millisecond,
		HedgeAfter: 2 * vclock.Millisecond,
		Faults: &fault.Plan{StallInstance: []fault.StallInstance{{Instance: 2,
			From:  fault.Dur{Duration: 215 * vclock.Millisecond},
			Until: fault.Dur{Duration: 240 * vclock.Millisecond}}}},
		Drain: size(b, 20*vclock.Second, vclock.Second),
	}
	return []struct {
		name string
		spec cluster.Spec
	}{{"admission", admission}, {"stall", stall}}
}

// runFleet builds and runs each fleet with cluster.New, Cluster.Run and
// Cluster.Shutdown on two advance shards.
func runFleet(r *rep) {
	for _, fs := range fleetSpecs(r.b) {
		r.attempt("fleet/"+fs.name, func(o *op) {
			s := fs.spec
			s.Seed = r.b.seed
			s.Shards = fleetShards
			s.Hooks = r.hooks()
			var c *cluster.Cluster
			var err error
			r.mu.Lock()
			before := len(r.worlds)
			r.mu.Unlock()
			r.span("cluster.New", PhaseSetup, func() { c, err = cluster.New(s) })
			if err != nil {
				o.fail("cluster.New: %v", err)
				return
			}
			defer r.span("cluster.Cluster.Shutdown", PhaseTeardown, c.Shutdown)
			r.mu.Lock()
			for _, w := range r.worlds[before:] {
				r.layer["sim.live_threads"] += float64(w.LiveThreads())
			}
			r.mu.Unlock()
			var sum *cluster.Summary
			r.span("cluster.Cluster.Run", PhaseTimed, func() { sum, err = c.Run() })
			if err != nil {
				o.fail("Run: %v", err)
				return
			}
			r.layer["cluster.admitted"] += float64(sum.Admitted)
			r.layer["cluster.rejected"] += float64(sum.Rejected)
			if rs := sum.Resilience; rs != nil {
				r.layer["cluster.retries"] += float64(rs.Retries)
				r.layer["cluster.hedges"] += float64(rs.Hedges)
				o.set("retries", rs.Retries)
				o.set("hedges", rs.Hedges)
				o.set("timeouts", rs.Timeouts)
				o.set("breaker_opens", rs.BreakerOpens)
			}
			for k, v := range map[string]int64{
				"offered": sum.Offered, "admitted": sum.Admitted, "rejected": sum.Rejected,
				"completed": sum.Completed, "goodput": sum.Goodput, "degraded": sum.Degraded,
				"shed": sum.Shed, "failed": sum.Failed, "window_us": sum.WindowUs,
				"p50_us": sum.P50Us, "p99_us": sum.P99Us, "max_us": sum.MaxUs,
			} {
				o.set(k, v)
			}
			o.expect(sum.Offered == s.Requests, "offered %d, spec asks %d", sum.Offered, s.Requests)
			o.expect(sum.Offered == sum.Goodput+sum.Degraded+sum.Shed+sum.Failed+sum.Rejected,
				"conservation: offered %d != goodput %d + degraded %d + shed %d + failed %d + rejected %d",
				sum.Offered, sum.Goodput, sum.Degraded, sum.Shed, sum.Failed, sum.Rejected)
			o.expect(sum.Admitted+sum.Rejected == sum.Offered, "admitted %d + rejected %d != offered %d",
				sum.Admitted, sum.Rejected, sum.Offered)
		})
	}
}

// captured is one encoded desktop trace, made during set-up.
type captured struct {
	name    string
	data    []byte
	events  int64
	cpus    int
	endTime vclock.Time
}

// traceWindow is the virtual time each captured desktop world runs.
func traceWindow(b *bench) vclock.Duration {
	return size(b, 30*vclock.Second, 300*vclock.Millisecond)
}

// capture runs one seeded desktop world with an in-memory trace and
// encodes it, names included, as `threadstudy -trace` does.
func capture(r *rep, bm workload.Benchmark) (*captured, error) {
	var buf trace.Buffer
	w := sim.NewWorld(sim.Config{Trace: &buf, Seed: r.b.seed, SystemDaemon: true})
	defer w.Shutdown()
	bm.Build(w, paradigm.NewRegistry())
	end := vclock.Time(0).Add(traceWindow(r.b))
	w.Run(end)
	names := map[int32]string{}
	for _, t := range w.Threads() {
		names[t.ID()] = t.Name()
	}
	var out bytes.Buffer
	var err error
	r.span("trace.WriteTrace", PhaseSetup, func() {
		err = trace.WriteTrace(&out, trace.Trace{Events: buf.Events, Names: names})
	})
	if err != nil {
		return nil, err
	}
	return &captured{name: bm.System + "/" + bm.Name, data: out.Bytes(), events: int64(len(buf.Events)),
		cpus: w.Config().CPUs, endTime: w.Now()}, nil
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// runTraceAnalysis captures the twelve desktop worlds' traces during
// set-up, then replays each as `traceview -profile -chrometrace` does:
// ReadTrace, a Profiler Record per event, Finish, NewReport and
// WriteChromeTrace.
func runTraceAnalysis(r *rep) {
	var caps []*captured
	var capErr error
	r.span("trace.capture", PhaseSetup, func() {
		for _, bm := range workload.AllBenchmarks() {
			c, err := capture(r, bm)
			if err != nil {
				capErr = err
				return
			}
			caps = append(caps, c)
		}
	})
	if capErr != nil {
		r.attempt("trace/capture", func(o *op) { o.fail("capture: %v", capErr) })
		return
	}
	for _, c := range caps {
		r.attempt("trace/"+c.name, func(o *op) {
			var tr trace.Trace
			var err error
			r.span("trace.ReadTrace", PhaseTimed, func() { tr, err = trace.ReadTrace(bytes.NewReader(c.data)) })
			if err != nil {
				o.fail("ReadTrace: %v", err)
				return
			}
			r.replayed += int64(len(tr.Events))
			var prof *profile.Profile
			r.span("profile.Profiler.Record", PhaseTimed, func() {
				p := profile.New(c.cpus)
				p.KeepSpans = true
				for _, ev := range tr.Events {
					p.Record(ev)
				}
				prof = p.Finish(c.endTime)
				prof.ApplyNames(tr.Names)
			})
			var report string
			r.span("profile.NewReport", PhaseTimed, func() { report = profile.NewReport(prof).String() })
			var chrome countingWriter
			r.span("profile.WriteChromeTrace", PhaseTimed, func() { err = profile.WriteChromeTrace(&chrome, prof) })
			if err != nil {
				o.fail("WriteChromeTrace: %v", err)
			}
			r.layer["trace.events"] += float64(len(tr.Events))
			r.layer["trace.bytes"] += float64(len(c.data))
			r.layer["profile.threads"] += float64(len(prof.Threads))
			r.layer["profile.monitors"] += float64(len(prof.Monitors))
			r.layer["profile.residue_us"] += float64(prof.Residue().Micros())

			o.set("encoded_events", c.events)
			o.set("decoded_events", int64(len(tr.Events)))
			o.set("bytes", int64(len(c.data)))
			o.set("threads", int64(len(prof.Threads)))
			o.set("monitors", int64(len(prof.Monitors)))
			o.set("cvs", int64(len(prof.CVs)))
			o.set("spans", int64(len(prof.Spans)))
			o.set("running_us", prof.TotalRunning().Micros())
			o.set("report_bytes", int64(len(report)))
			o.set("chrome_bytes", chrome.n)
			o.expect(int64(len(tr.Events)) == c.events, "decoded %d events, encoded %d", len(tr.Events), c.events)
			o.expect(prof.Residue() == 0, "profiler residue %v", prof.Residue())
			o.expect(len(report) > 0 && chrome.n > 0, "empty report or chrome trace")
		})
	}
}
