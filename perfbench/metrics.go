package main

import (
	"math"
	"sort"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units, directions and bounds; the package tests keep the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the base median
}

// endToEnd are the metrics of an untraced run, each the median over the
// run's repetitions except peak_rss_mb, which is the process peak. The
// bounds sit above the spread of four sets of ten runs (one seed each)
// per workload on a shared 2-vCPU host, as interquartile range over
// median: events_per_s 5–20%, wall_s 6–18%, cpu_s 4–12%, setup_s 6–19%,
// peak_rss_mb 6%, alloc_mb 1%, with the sets' medians up to 18% apart.
// The margin to the 0.25 bounds is small. setup_s, the least steady, gets
// the largest bound.
var endToEnd = []metricDef{
	{"events_per_s", "1/s", "higher", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"alloc_mb", "MB", "lower", 0.05},
}

// Per-layer metric groups. Counts come from the counting sink, the Probe
// and the workload summaries; spans are the median per repetition of the
// named calls; per-op costs come from the micro-drivers.
var (
	// layerCounts are fixed by the seed: every traced repetition must
	// repeat them, and the outputs they come from are pinned at seed 1, so
	// a change that moves one changes the simulated behaviour. Each direction says which way such a change
	// reads as better: less work for the host (events, switches, enters,
	// waits, retries, bytes), or more of what the workload exists to
	// deliver (worlds and virtual time covered, requests offered, completed
	// or admitted, threads and monitors the profiler accounts for).
	layerCounts = []metricDef{
		{"sim.events", "count", "lower", 0},
		{"sim.worlds", "count", "higher", 0},
		{"sim.sched_decisions", "count", "lower", 0},
		{"sim.live_threads", "count", "lower", 0},
		{"sim.switches", "count", "lower", 0},
		{"sim.forks", "count", "lower", 0},
		{"sim.yields", "count", "lower", 0},
		{"sim.sleeps", "count", "lower", 0},
		{"sim.blocks", "count", "lower", 0},
		{"monitor.enters", "count", "lower", 0},
		{"monitor.contended", "count", "lower", 0},
		{"monitor.cv_waits", "count", "lower", 0},
		{"monitor.timed_waits", "count", "lower", 0},
		{"monitor.cv_timeouts", "count", "lower", 0},
		{"monitor.notifies", "count", "lower", 0},
		{"workload.offered", "count", "higher", 0},
		{"workload.completed", "count", "higher", 0},
		{"cluster.admitted", "count", "higher", 0},
		{"cluster.rejected", "count", "lower", 0},
		{"cluster.retries", "count", "lower", 0},
		{"cluster.hedges", "count", "lower", 0},
		{"trace.events", "count", "lower", 0},
		{"trace.bytes", "bytes", "lower", 0},
		{"profile.threads", "count", "higher", 0},
		{"profile.monitors", "count", "higher", 0},
		// Must be 0: a run with any residue fails.
		{"profile.residue_us", "us", "lower", 0},
	}

	// layerSpans maps each span metric to the spans it sums.
	layerSpans = []struct {
		Name  string
		Spans []string
	}{
		{"sim.run_s", []string{"sim.World.Run"}},
		{"sim.shutdown_s", []string{"sim.World.Shutdown", "cluster.Cluster.Shutdown"}},
		{"workload.setup_s", []string{"workload.Benchmark.Build", "workload.StartSpec"}},
		{"stats.finish_s", []string{"stats.Collector.Finish", "stats.finish"}},
		{"cluster.run_s", []string{"cluster.Cluster.Run"}},
		{"trace.decode_s", []string{"trace.ReadTrace"}},
		{"profile.replay_s", []string{"profile.Profiler.Record"}},
		{"profile.report_s", []string{"profile.NewReport"}},
		{"profile.chrome_s", []string{"profile.WriteChromeTrace"}},
	}

	layerOverhead = []metricDef{
		{"bench.untraced_events_per_s", "1/s", "higher", 0},
		{"bench.traced_events_per_s", "1/s", "higher", 0},
		{"bench.trace_overhead_pct", "%", "lower", 0},
	}
)

// perLayer is the full per-layer metric list of a traced run, in
// BENCHMARK.json order.
func perLayer() []metricDef {
	var out []metricDef
	out = append(out, layerCounts...)
	out = append(out, metricDef{Name: "sim.virtual_s", Unit: "s", Better: "higher"})
	for _, s := range layerSpans {
		out = append(out, metricDef{Name: s.Name, Unit: "s", Better: "lower"})
	}
	for _, m := range micros {
		out = append(out, metricDef{Name: m.name, Unit: "ns", Better: "lower"},
			metricDef{Name: allocsName(m.name), Unit: "allocs/op", Better: "lower"})
	}
	out = append(out,
		metricDef{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"})
	return append(out, layerOverhead...)
}

// allocsName names the allocs/op companion of a per-op cost metric.
func allocsName(ns string) string { return ns[:len(ns)-len("_ns")] + "_allocs" }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// worsening is how much worse cand's median is than base's, as a share
// of base's median; negative when cand is better.
func worsening(m metricDef, base, cand []float64) float64 {
	b, c := median(base), median(cand)
	if m.Better == "higher" {
		return (b - c) / b
	}
	return (c - b) / b
}

// regressed reports whether cand is worse than base by more than the
// metric's bound: the benchmark's comparison rule.
func regressed(m metricDef, base, cand []float64) bool {
	return worsening(m, base, cand) > m.Bound
}
