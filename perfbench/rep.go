package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// bench is one invocation's fixed settings.
type bench struct {
	workload string
	seed     int64
	// tiny shrinks every input to a smoke-test size; pins do not apply.
	tiny bool
	// extraSink, when set, is attached to every world of a repetition
	// through Hooks.OnWorld, traced or not. The sensitivity test plants a
	// spinning sink here to check that the comparison flags a slowdown.
	extraSink func() trace.Sink
}

// size picks the full-scale or the smoke-test value.
func size[T any](b *bench, full, tiny T) T {
	if b.tiny {
		return tiny
	}
	return full
}

// op is one attempted operation: a world, cluster or trace run. Det holds
// its deterministic outputs, which are pinned for the default seed and
// must repeat exactly in every repetition, traced or not.
type op struct {
	Name     string
	Det      map[string]int64
	Problems []string
}

func (o *op) set(key string, v int64) { o.Det[key] = v }

func (o *op) fail(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

func (o *op) expect(ok bool, format string, args ...any) {
	if !ok {
		o.fail(format, args...)
	}
}

// rep is one repetition of a workload: set-up, timed calls, summaries and
// teardown, with every public call wrapped in a span.
type rep struct {
	b      *bench
	rec    *recorder
	traced bool
	ops    []*op

	probe *sim.Probe

	mu       sync.Mutex // OnWorld may run on cluster shard goroutines
	worlds   []*sim.World
	counters []*counter

	// replayed counts trace events replayed by trace-analysis, the
	// events_per_s numerator where no world runs in the timed phase.
	replayed int64
	// layer holds per-layer counts gathered from summaries (workload,
	// cluster, trace and profile outputs), reported by traced runs.
	layer map[string]float64
}

func newRep(b *bench, origin time.Time, run int, traced bool) *rep {
	r := &rep{b: b, rec: newRecorder(origin, run), traced: traced, layer: map[string]float64{}}
	if traced {
		r.probe = &sim.Probe{}
	}
	return r
}

func (r *rep) span(name string, phase Phase, f func()) { r.rec.span(name, phase, f) }

// attempt runs one operation, turning a panic into a failure of that
// operation.
func (r *rep) attempt(name string, f func(o *op)) {
	o := &op{Name: name, Det: map[string]int64{}}
	r.ops = append(r.ops, o)
	defer func() {
		if v := recover(); v != nil {
			o.fail("panic: %v", v)
		}
	}()
	f(o)
}

// hooks returns the observe-only seams for every world the repetition
// builds. Untraced, OnWorld only collects the world (for its event count)
// and attaches no sink; traced, it adds a counting sink and a Probe.
func (r *rep) hooks() sim.Hooks {
	return sim.Hooks{Probe: r.probe, OnWorld: r.onWorld}
}

func (r *rep) onWorld(w *sim.World) trace.Sink {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.worlds = append(r.worlds, w)
	var sinks []trace.Sink
	if r.traced {
		c := &counter{}
		r.counters = append(r.counters, c)
		sinks = append(sinks, c)
	}
	if r.b.extraSink != nil {
		sinks = append(sinks, r.b.extraSink())
	}
	switch len(sinks) {
	case 0:
		return nil
	case 1:
		return sinks[0]
	}
	return trace.Tee(sinks...)
}

// events is the number of events processed inside the timed calls:
// every hooked world's driver events plus replayed trace events.
func (r *rep) events() int64 {
	n := r.replayed
	for _, w := range r.worlds {
		n += w.EventsProcessed()
	}
	return n
}

// counter is a trace.Sink that counts the thread events behind the
// sim and monitor per-layer metrics. One counter serves one world.
type counter struct {
	kinds                                      [256]int64
	switchIns, contended, timedWaits, timeouts int64
}

func (c *counter) Record(ev trace.Event) {
	c.kinds[ev.Kind]++
	switch ev.Kind {
	case trace.KindSwitch:
		if ev.Thread != trace.NoThread {
			c.switchIns++
		}
	case trace.KindMLEnter:
		if ev.Aux == 1 {
			c.contended++
		}
	case trace.KindWait:
		if ev.Aux >= 0 {
			c.timedWaits++
		}
	case trace.KindWaitDone:
		if ev.Aux == 1 {
			c.timeouts++
		}
	}
}

func (c *counter) Flush() error { return nil }

// layerCounts folds the repetition's sinks, probe and worlds into the sim
// and monitor counts. Every value is deterministic for a given seed.
func (r *rep) layerCounts() map[string]float64 {
	var sum counter
	for _, c := range r.counters {
		for k, n := range c.kinds {
			sum.kinds[k] += n
		}
		sum.switchIns += c.switchIns
		sum.contended += c.contended
		sum.timedWaits += c.timedWaits
		sum.timeouts += c.timeouts
	}
	var decisions int64
	for _, w := range r.worlds {
		decisions += w.ScheduleDecisions()
	}
	m := map[string]float64{
		"sim.events":          float64(r.probe.Events()),
		"sim.worlds":          float64(r.probe.Worlds()),
		"sim.virtual_s":       r.probe.VirtualTime().Seconds(),
		"sim.sched_decisions": float64(decisions),
		"sim.switches":        float64(sum.switchIns),
		"sim.forks":           float64(sum.kinds[trace.KindFork]),
		"sim.yields":          float64(sum.kinds[trace.KindYield]),
		"sim.sleeps":          float64(sum.kinds[trace.KindSleep]),
		"sim.blocks":          float64(sum.kinds[trace.KindBlock]),
		"monitor.enters":      float64(sum.kinds[trace.KindMLEnter]),
		"monitor.contended":   float64(sum.contended),
		"monitor.cv_waits":    float64(sum.kinds[trace.KindWait]),
		"monitor.timed_waits": float64(sum.timedWaits),
		"monitor.cv_timeouts": float64(sum.timeouts),
		"monitor.notifies":    float64(sum.kinds[trace.KindNotify]),
	}
	for k, v := range r.layer {
		m[k] = v
	}
	return m
}
