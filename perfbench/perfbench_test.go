package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workload"
)

func tinyBench(name string) *bench {
	return &bench{workload: name, seed: 7, tiny: true}
}

func requireNoProblems(t *testing.T, res *result) {
	t.Helper()
	checkRepeats(res)
	for _, r := range res.reps {
		for _, o := range r.ops {
			for _, p := range o.Problems {
				t.Errorf("run %d %s: %s", r.rec.run, o.Name, p)
			}
		}
	}
}

// TestSmoke runs every workload at smoke-test size, traced, and checks
// that every named metric is reported with its unit and that outputs and
// per-layer counts repeat across runs and between traced and untraced ones.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res := measureTraced(tinyBench(name), 10*time.Millisecond)
			requireNoProblems(t, res)
			if n := len(res.reps); n < 2*minReps {
				t.Fatalf("%d repetitions, want at least %d", n, 2*minReps)
			}
			check := func(defs []metricDef, got map[string]measured) {
				if len(got) != len(defs) {
					t.Errorf("%d metrics, want %d", len(got), len(defs))
				}
				for _, m := range defs {
					v, ok := got[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s = %+v, want unit %s", m.Name, v, m.Unit)
					}
				}
			}
			e2e := res.endToEndMetrics()
			check(endToEnd, e2e)
			for _, m := range endToEnd {
				if v := e2e[m.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
			check(perLayer(), res.layerMetrics())
			if res.microErr != nil {
				t.Error(res.microErr)
			}
		})
	}
}

// TestLayersReached checks that each workload drives the layers it is
// meant to, and only those, through the traced counts.
func TestLayersReached(t *testing.T) {
	want := map[string][]string{
		"desktop":        {"sim.events", "sim.switches", "monitor.enters", "monitor.cv_timeouts"},
		"server":         {"sim.events", "workload.completed", "monitor.notifies", "sim.sched_decisions"},
		"fleet":          {"sim.events", "cluster.admitted", "cluster.rejected", "cluster.hedges"},
		"trace-analysis": {"trace.events", "trace.bytes", "profile.threads", "profile.monitors"},
	}
	for _, name := range workloadNames {
		r := runRep(tinyBench(name), time.Now(), 0, true)
		for _, k := range want[name] {
			if r.counts[k] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, k, r.counts[k])
			}
		}
		if name == "trace-analysis" && r.counts["sim.events"] != 0 {
			t.Errorf("trace-analysis ran %v simulator events in its timed phase", r.counts["sim.events"])
		}
		if name != "fleet" && r.counts["cluster.admitted"] != 0 {
			t.Errorf("%s: cluster.admitted = %v, want 0", name, r.counts["cluster.admitted"])
		}
	}
}

// TestDesktopMatchesWorkloadRun checks that the desktop workload's
// per-call path computes what workload.Run computes.
func TestDesktopMatchesWorkloadRun(t *testing.T) {
	b := tinyBench("desktop")
	r := runRep(b, time.Now(), 0, false)
	rc := workload.DefaultRunConfig()
	rc.Seed = b.seed
	rc.Window = desktopWindow(b)
	for i, bm := range workload.AllBenchmarks() {
		probe := &sim.Probe{}
		rc.Hooks = sim.Hooks{Probe: probe}
		a := workload.Run(bm, rc).Analysis
		want := map[string]int64{
			"events": probe.Events(), "virtual_us": probe.VirtualTime().Micros(),
			"forks": int64(a.Forks), "switches": int64(a.Switches), "waits": int64(a.WaitDones),
			"wait_timeouts": int64(a.WaitTimeouts), "ml_enters": int64(a.MLEnters),
			"ml_contended": int64(a.MLContended),
		}
		if got := r.ops[i].Det; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: benchmark outputs %v, workload.Run %v", bm.Name, got, want)
		}
	}
}

// runDesktopFollows is the digest of workload.Run's code that runDesktop
// copies call by call. When workload.Run changes, the desktop figures no
// longer measure it: bring runDesktop into line, then update the digest.
const runDesktopFollows = "019323f8423c6873eeb6c42b8e86a1d8e04e47d668ab260732ca5c2ea4baf829"

// TestDesktopFollowsWorkloadRun fails when workload.Run's code changes
// (comments aside), since runDesktop repeats its calls to time each one.
func TestDesktopFollowsWorkloadRun(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "../internal/workload/run.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "Run" {
			var code bytes.Buffer
			if err := printer.Fprint(&code, fset, fn); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(code.Bytes())); got != runDesktopFollows {
				t.Errorf("workload.Run changed (digest %s): make runDesktop repeat its calls, then update runDesktopFollows", got)
			}
			return
		}
	}
	t.Fatal("workload.Run not found")
}

// TestTimerMixIsDesktopTraffic checks that the eventq drivers replay one
// wake-up delay per timed CV wait the desktop workload makes at the
// pinned seed, each on the 50 ms timeout granularity.
func TestTimerMixIsDesktopTraffic(t *testing.T) {
	b := &bench{workload: "desktop", seed: pinnedSeed, tiny: true}
	r := runRep(b, time.Now(), 0, true)
	ds := desktopTimeouts(b)
	if want := r.counts["monitor.timed_waits"]; float64(len(ds)) != want || want == 0 {
		t.Errorf("%d wake-up delays, desktop made %v timed waits", len(ds), want)
	}
	for _, d := range ds {
		if d <= 0 || d%(50*vclock.Millisecond) != 0 {
			t.Fatalf("wake-up delay %v is not a positive multiple of 50ms", d)
		}
	}
}

// spinSink burns a fixed number of loop iterations per recorded event: a
// planted slowdown.
type spinSink struct{ iters int }

var spinState uint64

func spin(iters int) {
	x := spinState
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinState = x
}

func (s spinSink) Record(trace.Event) { spin(s.iters) }
func (spinSink) Flush() error         { return nil }

// nsPerSpin times the spin loop.
func nsPerSpin() float64 {
	const n = 50_000_000
	start := time.Now()
	spin(n)
	return float64(time.Since(start).Nanoseconds()) / n
}

// eventCounter counts recorded events.
type eventCounter struct{ n *int64 }

func (c eventCounter) Record(trace.Event) { *c.n++ }
func (eventCounter) Flush() error         { return nil }

// TestSensitivity plants a delay of twice the events_per_s bound on
// desktop, as a spinning sink on every world, and checks that the
// benchmark's comparison flags it. Base and planted repetitions alternate,
// so a drift in host speed hits both sides alike.
func TestSensitivity(t *testing.T) {
	m := endToEnd[0]
	if m.Name != "events_per_s" {
		t.Fatalf("first end-to-end metric is %s", m.Name)
	}
	base := tinyBench("desktop")
	var baseReps []*repStats
	for i := 0; i < 5; i++ {
		baseReps = append(baseReps, runRep(base, time.Now(), i, false))
	}

	// Size the spin from the base repetitions: per recorded event, twice
	// the bound's share of the timed time.
	var events int64
	counting := tinyBench("desktop")
	counting.extraSink = func() trace.Sink { return eventCounter{&events} }
	runRep(counting, time.Now(), 0, false)
	perEvent := medianOf(baseReps, func(r *repStats) float64 { return r.timed }) / float64(events)
	delay := 2 * m.Bound * perEvent * 1e9 // ns per recorded event
	iters := int(delay / nsPerSpin())
	if iters <= 0 {
		t.Fatalf("cannot size the delay: %d events, %.0f ns per event", events, delay)
	}

	planted := tinyBench("desktop")
	planted.extraSink = func() trace.Sink { return spinSink{iters} }
	var baseRate, slowRate []float64
	for i := 0; i < 10; i++ {
		for _, b := range []*bench{base, planted} {
			r := runRep(b, time.Now(), i, false)
			for _, o := range r.ops {
				for _, p := range o.Problems {
					t.Errorf("%s: %s", o.Name, p)
				}
			}
			rate := eventsPerS([]*repStats{r})[0]
			if b == base {
				baseRate = append(baseRate, rate)
			} else {
				slowRate = append(slowRate, rate)
			}
		}
	}
	t.Logf("planted %.0f ns per event: events_per_s %.0f -> %.0f (%.1f%% worse, bound %.0f%%)",
		delay, median(baseRate), median(slowRate), 100*worsening(m, baseRate, slowRate), 100*m.Bound)
	if !regressed(m, baseRate, slowRate) {
		t.Errorf("planted delay not flagged")
	}
}

func TestRegressed(t *testing.T) {
	hi := metricDef{Name: "x", Better: "higher", Bound: 0.1}
	lo := metricDef{Name: "y", Better: "lower", Bound: 0.1}
	cases := []struct {
		m          metricDef
		base, cand []float64
		want       bool
	}{
		{hi, []float64{100, 100, 100}, []float64{95, 95, 95}, false},
		{hi, []float64{100, 100, 100}, []float64{85, 85, 85}, true},
		{hi, []float64{100}, []float64{150}, false},
		{lo, []float64{1, 1, 1}, []float64{1.05, 1.05, 1.05}, false},
		{lo, []float64{1, 1, 1}, []float64{1.2, 1.2, 1.2}, true},
		{lo, []float64{1, 1, 9}, []float64{1, 1.05, 1.05}, false},
	}
	for _, c := range cases {
		if got := regressed(c.m, c.base, c.cand); got != c.want {
			t.Errorf("regressed(%s, %v, %v) = %v, want %v", c.m.Name, c.base, c.cand, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with the
// metrics this program prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	var e2e []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program has %v", e2e, endToEnd)
	}
	var layer []metricDef
	for _, m := range doc.PerLayer {
		layer = append(layer, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(layer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's:\n got %v\nwant %v", layer, perLayer())
	}
}

func TestPinsCoverWorkloads(t *testing.T) {
	ps, err := readPins(pinsJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		if len(ps[name]) == 0 {
			t.Errorf("pins.json has no pins for %s", name)
		}
	}
}

func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "desktop", "-trace", "2"},
		{"-workload", "desktop", "-seconds", "0"},
		{"-workload", "desktop", "extra"},
		{"-bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

func TestSpans(t *testing.T) {
	r := newRecorder(time.Now(), 3)
	r.span("outer", PhaseRep, func() {
		r.span("a", PhaseSetup, func() { time.Sleep(time.Millisecond) })
		r.span("b", PhaseTimed, func() {
			r.span("c", PhaseTimed, func() { time.Sleep(time.Millisecond) })
		})
	})
	r.fillSelf()
	if got := r.spans[2].Parent; got != 0 {
		t.Errorf("b's parent = %d, want 0", got)
	}
	if got := r.spans[3].Parent; got != 2 {
		t.Errorf("c's parent = %d, want 2", got)
	}
	if timed, c := r.phaseTotal(PhaseTimed), r.spans[2].Dur(); timed != c {
		t.Errorf("timed total %v counts nested spans twice (b lasted %v)", timed, c)
	}
	for _, s := range r.spans {
		if s.Run != 3 || s.Self < 0 || s.Self > s.Dur() {
			t.Errorf("span %+v: bad run or self time", s)
		}
	}
}
