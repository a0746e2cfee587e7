// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time from a single process, checks the simulated
// outputs, and prints one JSON result as its last line of output:
//
//	bash perfbench/run.sh --workload desktop --seed 1 --seconds 20 --trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics of a separate traced run, whose spans are
// also written under -out. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/vclock"
)

// benchProcs is the benchmark's GOMAXPROCS, sized for a small shared host.
const benchProcs = 2

// minReps is the fewest repetitions a run makes, whatever its time budget.
const minReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed; seed 1 is checked against pins.json")
	seconds := fs.Float64("seconds", 20, "how long the run measures")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	out := fs.String("out", ".bench_build", "directory for the traced run's span file")
	writePins := fs.String("write-pins", "",
		"record this run's deterministic outputs as the workload's pins in this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || fs.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames, ", "))
		return 2
	}
	runtime.GOMAXPROCS(min(benchProcs, runtime.NumCPU()))
	b := &bench{workload: *name, seed: *seed}

	host := fingerprint()
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostJSON)

	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *traced == 1 {
		res = measureTraced(b, budget)
	} else {
		res = measure(b, budget)
	}
	if *writePins != "" {
		if err := savePins(*writePins, b, res.reps[0].ops); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	} else if b.seed == pinnedSeed {
		checkPins(b, res.reps)
	}
	checkRepeats(res)

	attempted, failed := 0, 0
	for _, rp := range res.reps {
		for _, o := range rp.ops {
			attempted++
			if len(o.Problems) > 0 {
				failed++
				for _, p := range o.Problems {
					fmt.Fprintf(stdout, "FAIL run %d %s: %s\n", rp.rec.run, o.Name, p)
				}
			}
		}
	}
	var ms map[string]measured
	if *traced == 1 {
		ms = res.layerMetrics()
		if err := writeSpans(*out, b, host, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		printCostModel(stdout, res)
		for _, st := range summarizeSpans(res.spans()) {
			fmt.Fprintf(stdout, "span %-26s %6d calls %10.4f s total %10.4f s self\n",
				st.Name, st.Count, st.Total, st.Self)
		}
	} else {
		ms = res.endToEndMetrics()
	}
	printMetrics(stdout, ms)
	line, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{failed == 0, attempted, failed, ms})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measured is one metric value as printed in the result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// repStats is what one repetition measured.
type repStats struct {
	*rep
	wall, setup, timed, cpu, allocMB float64
	gcCPU, gcCycles                  float64
	events                           int64
	counts                           map[string]float64 // traced repetitions only
}

// result is a whole run: its repetitions and, when traced, the
// micro-driver costs and the untraced repetitions it is compared with.
type result struct {
	reps     []*repStats // all repetitions, untraced first
	micro    []microResult
	timers   []timerShare // the desktop timer mix the eventq drivers replayed
	microErr error
	peakRSS  float64
}

// spans lists every repetition's spans, self times filled in.
func (res *result) spans() []Span {
	var out []Span
	for _, r := range res.reps {
		r.rec.fillSelf()
		out = append(out, r.rec.spans...)
	}
	return out
}

func (res *result) repsOf(traced bool) []*repStats {
	var out []*repStats
	for _, r := range res.reps {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runRep runs one repetition. The collection before it is outside every
// measurement, so each repetition starts from a settled heap.
func runRep(b *bench, origin time.Time, run int, traced bool) *repStats {
	runtime.GC()
	r := newRep(b, origin, run, traced)
	rt0, cpu0 := readRuntime(), cpuSeconds()
	r.span("rep", PhaseRep, func() { workloads[b.workload](r) })
	cpu1, rt1 := cpuSeconds(), readRuntime()
	rs := &repStats{
		rep:      r,
		wall:     r.rec.total("rep"),
		setup:    r.rec.phaseTotal(PhaseSetup),
		timed:    r.rec.phaseTotal(PhaseTimed),
		cpu:      cpu1 - cpu0,
		allocMB:  (rt1[0] - rt0[0]) / 1e6,
		gcCPU:    rt1[1] - rt0[1],
		gcCycles: rt1[2] - rt0[2],
		events:   r.events(),
	}
	if traced {
		rs.counts = r.layerCounts()
	}
	// Keep the spans and outputs, not the finished worlds: later
	// repetitions must not run beside a growing heap.
	r.worlds, r.counters, r.probe = nil, nil, nil
	return rs
}

// repeat runs repetitions until the budget is spent, and at least minReps.
func repeat(b *bench, origin time.Time, budget time.Duration, traced bool, first int) []*repStats {
	var out []*repStats
	start := time.Now()
	for len(out) < minReps || time.Since(start) < budget {
		out = append(out, runRep(b, origin, first+len(out), traced))
	}
	return out
}

// measure is the untraced end-to-end run.
func measure(b *bench, budget time.Duration) *result {
	res := &result{reps: repeat(b, time.Now(), budget, false, 0)}
	res.peakRSS = peakRSSMB()
	return res
}

// measureTraced spends half the budget untraced and half traced, then runs
// the micro-drivers; the untraced half is the base of the overhead figure.
func measureTraced(b *bench, budget time.Duration) *result {
	origin := time.Now()
	res := &result{reps: repeat(b, origin, budget/2, false, 0)}
	res.reps = append(res.reps, repeat(b, origin, budget/2, true, len(res.reps))...)
	res.micro, res.timers, res.microErr = runMicros(b)
	res.peakRSS = peakRSSMB()
	return res
}

func eventsPerS(reps []*repStats) []float64 {
	var out []float64
	for _, r := range reps {
		out = append(out, float64(r.events)/r.timed)
	}
	return out
}

func medianOf(reps []*repStats, f func(*repStats) float64) float64 {
	var xs []float64
	for _, r := range reps {
		xs = append(xs, f(r))
	}
	return median(xs)
}

func (res *result) endToEndMetrics() map[string]measured {
	reps := res.repsOf(false)
	vals := map[string]float64{
		"events_per_s": median(eventsPerS(reps)),
		"wall_s":       medianOf(reps, func(r *repStats) float64 { return r.wall }),
		"cpu_s":        medianOf(reps, func(r *repStats) float64 { return r.cpu }),
		"setup_s":      medianOf(reps, func(r *repStats) float64 { return r.setup }),
		"peak_rss_mb":  res.peakRSS,
		"alloc_mb":     medianOf(reps, func(r *repStats) float64 { return r.allocMB }),
	}
	out := map[string]measured{}
	for _, m := range endToEnd {
		out[m.Name] = measured{vals[m.Name], m.Unit}
	}
	return out
}

func (res *result) layerMetrics() map[string]measured {
	traced := res.repsOf(true)
	vals := map[string]float64{}
	for k, v := range traced[0].counts {
		vals[k] = v
	}
	for _, s := range layerSpans {
		vals[s.Name] = medianOf(traced, func(r *repStats) float64 { return r.rec.total(s.Spans...) })
	}
	vals["runtime.gc_cpu_s"] = medianOf(traced, func(r *repStats) float64 { return r.gcCPU })
	vals["runtime.gc_cycles"] = medianOf(traced, func(r *repStats) float64 { return r.gcCycles })
	for _, m := range res.micro {
		vals[m.Name] = m.NsPerOp
		vals[allocsName(m.Name)] = m.AllocsPerOp
	}
	untraced := median(eventsPerS(res.repsOf(false)))
	tracedRate := median(eventsPerS(traced))
	vals["bench.untraced_events_per_s"] = untraced
	vals["bench.traced_events_per_s"] = tracedRate
	vals["bench.trace_overhead_pct"] = 100 * (untraced/tracedRate - 1)
	out := map[string]measured{}
	for _, m := range perLayer() {
		out[m.Name] = measured{vals[m.Name], m.Unit}
	}
	return out
}

// checkRepeats fails every operation whose deterministic outputs differ
// from the first repetition's, traced or not, and every traced repetition
// whose per-layer counts differ from the first traced one's.
func checkRepeats(res *result) {
	first := res.reps[0]
	for _, r := range res.reps[1:] {
		if len(r.ops) != len(first.ops) {
			r.ops[0].fail("ran %d operations, run 0 ran %d", len(r.ops), len(first.ops))
			continue
		}
		for i, o := range r.ops {
			if d := diffDet(first.ops[i].Det, o.Det); d != "" {
				o.fail("outputs differ from run 0: %s", d)
			}
		}
	}
	traced := res.repsOf(true)
	for _, r := range traced {
		for _, m := range layerCounts {
			k := m.Name
			if r.counts[k] != traced[0].counts[k] {
				r.ops[0].fail("per-layer count %s = %v, run %d had %v",
					k, r.counts[k], traced[0].rec.run, traced[0].counts[k])
			}
		}
	}
	if res.microErr != nil && len(traced) > 0 {
		traced[0].ops[0].fail("micro-drivers: %v", res.microErr)
	}
}

// diffDet describes the first differing key of two output sets, or "".
func diffDet(want, got map[string]int64) string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		w, wok := want[k]
		g, gok := got[k]
		if w != g || wok != gok {
			return fmt.Sprintf("%s = %d, want %d", k, g, w)
		}
	}
	return ""
}

func printMetrics(w io.Writer, ms map[string]measured) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-32s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// printCostModel sets each per-op cost times the count it multiplies
// against the spans that contain that work.
func printCostModel(w io.Writer, res *result) {
	traced := res.repsOf(true)
	fmt.Fprintf(w, "cost model: per-op cost x workload count vs containing spans\n")
	for i, m := range res.micro {
		mi := micros[i]
		count := mi.count(traced[0].counts)
		product := m.NsPerOp * count / 1e9
		span := medianOf(traced, func(r *repStats) float64 { return r.rec.total(mi.spans...) })
		share := 0.0
		if span > 0 {
			share = 100 * product / span
		}
		fmt.Fprintf(w, "cost %-26s %9.1f ns %6.2f allocs/op x %12.0f = %9.4f s of %9.4f s in %s (%5.1f%%)\n",
			m.Name, m.NsPerOp, m.AllocsPerOp, count, product, span, strings.Join(mi.spans, "+"), share)
	}
	var mix []string
	for i, ts := range res.timers {
		if i == 8 {
			mix = append(mix, fmt.Sprintf("%d more", len(res.timers)-i))
			break
		}
		mix = append(mix, fmt.Sprintf("%v %.1f%%", vclock.Duration(ts.DelayUS), 100*ts.Share))
	}
	fmt.Fprintf(w, "eventq timer mix (desktop timed CV waits, seed %d): %s\n", pinnedSeed, strings.Join(mix, ", "))
}

// writeSpans writes the traced run's spans, with self times, and its
// per-name span summary to a JSON file under dir.
func writeSpans(dir string, b *bench, host hostInfo, res *result) error {
	spans := res.spans()
	doc := struct {
		Workload string        `json:"workload"`
		Seed     int64         `json:"seed"`
		Host     hostInfo      `json:"host"`
		Summary  []spanStat    `json:"summary"`
		Micro    []microResult `json:"micro"`
		TimerMix []timerShare  `json:"timer_mix"`
		Spans    []Span        `json:"spans"`
	}{b.workload, b.seed, host, summarizeSpans(spans), res.micro, res.timers, spans}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", b.workload, b.seed))
	return os.WriteFile(path, data, 0o644)
}
