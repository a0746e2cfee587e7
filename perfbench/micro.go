package main

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/eventq"
	"repro/internal/monitor"
	"repro/internal/paradigm"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// A micro-driver prepares n operations against one layer's public API and
// returns the timed part and the cleanup. Only the timed part is measured,
// for both time and allocations.
type microDriver func(n int, fx *fixture) (timed, done func())

// micro is one per-op cost metric with the workload count it multiplies
// and the spans that contain that work, so count × cost can be set
// against them.
type micro struct {
	name  string // metric name, ending in _ns
	n     int    // operations per trial at full scale
	drive microDriver
	count func(c map[string]float64) float64
	spans []string
}

// worldRuns are the spans inside which simulated worlds run.
var worldRuns = []string{"sim.World.Run", "cluster.Cluster.Run"}

func countOf(name string) func(map[string]float64) float64 {
	return func(c map[string]float64) float64 { return c[name] }
}

// Each monitor enter charges its lock cost through the Compute fast
// path, so compute_fast multiplies monitor.enters.
var micros = []micro{
	{"sim.handoff_ns", 40_000, handoff(0), countOf("sim.switches"), worldRuns},
	{"sim.handoff_10k_ns", 40_000, handoff(10_000), countOf("sim.switches"), worldRuns},
	{"sim.compute_fast_ns", 200_000, computeFast, countOf("monitor.enters"), worldRuns},
	{"eventq.schedule_cancel_ns", 256_000, scheduleCancel,
		func(c map[string]float64) float64 { return c["monitor.timed_waits"] - c["monitor.cv_timeouts"] },
		worldRuns},
	{"eventq.schedule_pop_ns", 256_000, schedulePop, countOf("monitor.cv_timeouts"), worldRuns},
	{"monitor.enter_exit_ns", 200_000, enterExit, countOf("monitor.enters"), worldRuns},
	{"monitor.wait_notify_ns", 20_000, waitNotify, countOf("monitor.notifies"), worldRuns},
	{"stats.latency_add_ns", 1_000_000, latencyAdd, countOf("workload.completed"), worldRuns},
	{"trace.encode_ns", 0, encode, countOf("trace.events"), []string{"trace.WriteTrace"}},
	{"trace.decode_ns", 0, decode, countOf("trace.events"), []string{"trace.ReadTrace"}},
	{"profile.record_ns", 0, record, countOf("trace.events"), []string{"profile.Profiler.Record"}},
}

// fixture holds the recorded desktop traffic the drivers replay: a
// captured trace for the trace and profile drivers, whose operation count
// is the trace's length, and the wake-up delays of the desktop's timed CV
// waits for the eventq drivers.
type fixture struct {
	events   []trace.Event
	encoded  []byte
	end      vclock.Time
	timeouts []vclock.Duration
}

func newFixture(b *bench) (*fixture, error) {
	bm, err := workload.FindBenchmark("Cedar", "Keyboard input")
	if err != nil {
		return nil, err
	}
	var buf trace.Buffer
	w := sim.NewWorld(sim.Config{Trace: &buf, Seed: 1, SystemDaemon: true})
	defer w.Shutdown()
	bm.Build(w, paradigm.NewRegistry())
	w.Run(vclock.Time(0).Add(size(b, 3*vclock.Second, 200*vclock.Millisecond)))
	var enc bytes.Buffer
	if err := trace.Write(&enc, buf.Events); err != nil {
		return nil, err
	}
	timeouts := desktopTimeouts(b)
	if len(timeouts) == 0 {
		return nil, errors.New("the desktop worlds made no timed CV wait")
	}
	return &fixture{events: buf.Events, encoded: enc.Bytes(), end: w.Now(), timeouts: timeouts}, nil
}

// desktopTimeouts runs the desktop workload's twelve worlds through
// workload.Run at the pinned seed and returns the wake-up delay of every
// timed CV wait they make, in order: the WAIT's timeout rounded up to the
// world's timeout granularity, the delay at which sim schedules the
// wake-up timer. At seed 1 there are as many as the desktop workload's
// monitor.timed_waits.
func desktopTimeouts(b *bench) []vclock.Duration {
	rc := workload.DefaultRunConfig()
	rc.Seed = pinnedSeed
	rc.Window = desktopWindow(b)
	var out []vclock.Duration
	for _, bm := range workload.AllBenchmarks() {
		var waits timedWaits
		var gran vclock.Duration
		rc.Hooks.OnWorld = func(w *sim.World) trace.Sink {
			gran = w.Config().TimeoutGranularity
			return &waits
		}
		workload.Run(bm, rc)
		for _, d := range waits {
			out = append(out, d.RoundUp(gran))
		}
	}
	return out
}

// timedWaits is a trace.Sink that keeps the timeout of every timed WAIT.
type timedWaits []vclock.Duration

func (s *timedWaits) Record(ev trace.Event) {
	if ev.Kind == trace.KindWait && ev.Aux >= 0 {
		*s = append(*s, vclock.Duration(ev.Aux))
	}
}

func (s *timedWaits) Flush() error { return nil }

// timerShare is one wake-up delay of the timer mix and its share of it.
type timerShare struct {
	DelayUS int64   `json:"delay_us"`
	Share   float64 `json:"share"`
}

// timerMix summarizes wake-up delays, most common first.
func timerMix(ds []vclock.Duration) []timerShare {
	counts := map[vclock.Duration]int{}
	for _, d := range ds {
		counts[d]++
	}
	out := make([]timerShare, 0, len(counts))
	for d, n := range counts {
		out = append(out, timerShare{d.Micros(), float64(n) / float64(len(ds))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].DelayUS < out[j].DelayUS
	})
	return out
}

// microResult is one driver's median cost over its trials.
type microResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Ops         int     `json:"ops"`
	Trials      int     `json:"trials"`
}

const microTrials = 5

// runMicros measures every driver: microTrials trials each, median cost.
// It also returns the desktop timer mix the eventq drivers replayed.
func runMicros(b *bench) ([]microResult, []timerShare, error) {
	fx, err := newFixture(b)
	if err != nil {
		return nil, nil, err
	}
	var out []microResult
	for _, m := range micros {
		n := m.n
		if n == 0 {
			n = len(fx.events)
		} else if b.tiny {
			n = max(n/100, 64)
		}
		var ns, allocs []float64
		for i := 0; i < microTrials; i++ {
			timed, done := m.drive(n, fx)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			timed()
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			done()
			ns = append(ns, float64(elapsed.Nanoseconds())/float64(n))
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(n))
		}
		out = append(out, microResult{Name: m.name, NsPerOp: median(ns), AllocsPerOp: median(allocs),
			Ops: n, Trials: microTrials})
	}
	return out, timerMix(fx.timeouts), nil
}

// handoff ping-pongs two threads through Yield, n yields in all, beside
// `parked` threads blocked for good. Each yield is one handoff.
func handoff(parked int) microDriver {
	return func(n int, _ *fixture) (func(), func()) {
		w := sim.NewWorld(sim.Config{SwitchCost: -1})
		for i := 0; i < parked; i++ {
			w.Spawn("parked", sim.PriorityNormal, func(t *sim.Thread) any {
				t.Block(sim.BlockMutex)
				return nil
			})
		}
		w.Run(vclock.Never - 1) // every parked thread starts and blocks
		for i := 0; i < 2; i++ {
			w.Spawn("pingpong", sim.PriorityNormal, func(t *sim.Thread) any {
				for j := 0; j < n/2; j++ {
					t.Yield()
				}
				return nil
			})
		}
		return func() { w.Run(vclock.Never - 1) }, w.Shutdown
	}
}

// computeFast charges n one-microsecond Computes on a lone thread, the
// inline clock advance with no competitor.
func computeFast(n int, _ *fixture) (func(), func()) {
	w := sim.NewWorld(sim.Config{SwitchCost: -1})
	w.Spawn("worker", sim.PriorityNormal, func(t *sim.Thread) any {
		for i := 0; i < n; i++ {
			t.Compute(vclock.Microsecond)
		}
		return nil
	})
	return func() { w.Run(vclock.Never - 1) }, w.Shutdown
}

const timerBatch = 64

// scheduleCancel schedules timers at the desktop's wake-up delays, in the
// order the desktop asked for them, and cancels them before they fire, as
// a notified timed WAIT does; one op is a pair. Within a batch the
// deadlines are kept distinct, as waits begun at different times are.
func scheduleCancel(n int, fx *fixture) (func(), func()) {
	var q eventq.Queue
	nop := func() {}
	handles := make([]eventq.Handle, timerBatch)
	return func() {
		k := 0
		for i := 0; i < n; i += timerBatch {
			for j := range handles {
				d := fx.timeouts[k%len(fx.timeouts)]
				k++
				handles[j] = q.Schedule(vclock.Time(0).Add(d+vclock.Duration(j)), nop)
			}
			for _, h := range handles {
				q.Cancel(h)
			}
		}
	}, func() {}
}

// schedulePop schedules timers at the desktop's wake-up delays and pops
// them all, as a timed-out WAIT does; one op is a schedule-and-pop pair.
func schedulePop(n int, fx *fixture) (func(), func()) {
	var q eventq.Queue
	nop := func() {}
	return func() {
		now := vclock.Time(0)
		k := 0
		for i := 0; i < n; i += timerBatch {
			for j := 0; j < timerBatch; j++ {
				d := fx.timeouts[k%len(fx.timeouts)]
				k++
				q.Schedule(now.Add(d+vclock.Duration(j)), nop)
			}
			for j := 0; j < timerBatch; j++ {
				_, when, _ := q.PopDo()
				now = when
			}
		}
	}, func() {}
}

// enterExit enters and exits one uncontended monitor n times.
func enterExit(n int, _ *fixture) (func(), func()) {
	w := sim.NewWorld(sim.Config{SwitchCost: -1})
	m := monitor.New(w, "bench")
	w.Spawn("worker", sim.PriorityNormal, func(t *sim.Thread) any {
		for i := 0; i < n; i++ {
			m.Enter(t)
			m.Exit(t)
		}
		return nil
	})
	return func() { w.Run(vclock.Never - 1) }, w.Shutdown
}

// waitNotify ping-pongs two threads through one condition variable; one
// op is a NOTIFY and the WAIT it ends.
func waitNotify(n int, _ *fixture) (func(), func()) {
	w := sim.NewWorld(sim.Config{SwitchCost: -1})
	m := monitor.New(w, "bench")
	c := m.NewCond("turn")
	for i := 0; i < 2; i++ {
		w.Spawn("pingpong", sim.PriorityNormal, func(t *sim.Thread) any {
			m.Enter(t)
			for j := 0; j < n/2; j++ {
				c.Notify(t)
				c.Wait(t)
			}
			c.Notify(t)
			m.Exit(t)
			return nil
		})
	}
	return func() { w.Run(vclock.Never - 1) }, w.Shutdown
}

// latencyAdd records n latencies.
func latencyAdd(n int, _ *fixture) (func(), func()) {
	var r stats.LatencyRecorder
	return func() {
		for i := 0; i < n; i++ {
			r.Add(vclock.Duration(i%997 + 1))
		}
	}, func() {}
}

// encode streams the fixture through a trace.Encoder.
func encode(_ int, fx *fixture) (func(), func()) {
	return func() {
		e := trace.NewEncoder(io.Discard)
		for _, ev := range fx.events {
			e.Record(ev)
		}
		if err := e.Flush(); err != nil {
			panic(err) // io.Discard never fails
		}
	}, func() {}
}

// decode decodes the encoded fixture.
func decode(_ int, fx *fixture) (func(), func()) {
	return func() {
		if _, err := trace.Read(bytes.NewReader(fx.encoded)); err != nil {
			panic(err) // the fixture was encoded by trace.Write
		}
	}, func() {}
}

// record replays the fixture through a profiler.
func record(_ int, fx *fixture) (func(), func()) {
	return func() {
		p := profile.New(1)
		for _, ev := range fx.events {
			p.Record(ev)
		}
		p.Finish(fx.end)
	}, func() {}
}
