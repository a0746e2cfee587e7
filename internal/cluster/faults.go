package cluster

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fault"
	"repro/internal/vclock"
)

// This file compiles a fault.Plan's cluster-scoped rules (CrashInstance,
// StallInstance, DegradeInstance) into per-instance virtual-time
// timelines the resilience driver consults. Compilation is owned by the
// cluster — not by internal/fault — because only the cluster knows the
// instance-index namespace, and it is seeded so that AnyInstance (-1)
// victim picks resolve identically for a given (plan, seed, fleet size)
// whatever Spec.Shards is: all draws happen here, before any world
// advances.

// window is a half-open virtual-time interval [from, to).
type window struct {
	from, to vclock.Time
}

func (w window) contains(t vclock.Time) bool { return !t.Before(w.from) && t.Before(w.to) }

// instTimeline is one instance's compiled fault schedule.
type instTimeline struct {
	crashes  []window // down intervals; to==Never for crash-without-restart
	stalls   []window
	degrades []struct {
		w window
		f float64
	}
}

// instanceFaults is a compiled cluster fault plan.
type instanceFaults struct {
	inst []instTimeline
	// span bounds the whole faulted phase: the earliest fault onset and
	// the latest fault end (Never when some crash never restarts).
	span window
}

// compileFaults resolves a plan's instance-scoped rules against a fleet
// of n instances. The seed drives AnyInstance picks only; a plan with
// explicit indices compiles identically at any seed. Rule order fixes
// the RNG draw order, so compilation is deterministic.
func compileFaults(p *fault.Plan, n int, seed int64) (*instanceFaults, error) {
	f := &instanceFaults{inst: make([]instTimeline, n)}
	f.span = window{from: vclock.Never, to: 0}
	if p == nil {
		return f, nil
	}
	if err := p.Check(); err != nil {
		return nil, err
	}
	if p.HasThreadFaults() {
		return nil, fmt.Errorf("cluster: fault plan has thread-scoped kinds " +
			"(lost_notify/crash_thread/fork_exhaustion/stall_thread/clock_jitter); " +
			"cluster specs take instance-scoped kinds only")
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func(i int) (int, error) {
		if i == fault.AnyInstance {
			return rng.Intn(n), nil
		}
		if i >= n {
			return 0, fmt.Errorf("cluster: fault rule targets instance %d of a %d-instance fleet", i, n)
		}
		return i, nil
	}
	grow := func(w window) {
		if w.from.Before(f.span.from) {
			f.span.from = w.from
		}
		if w.to.After(f.span.to) {
			f.span.to = w.to
		}
	}
	epoch := vclock.Time(0)
	for _, r := range p.CrashInstance {
		i, err := pick(r.Instance)
		if err != nil {
			return nil, err
		}
		w := window{from: epoch.Add(r.At.Duration), to: vclock.Never}
		if r.Restart.Duration > 0 {
			w.to = w.from.Add(r.Restart.Duration)
		}
		f.inst[i].crashes = append(f.inst[i].crashes, w)
		grow(w)
	}
	for _, r := range p.StallInstance {
		i, err := pick(r.Instance)
		if err != nil {
			return nil, err
		}
		w := window{from: epoch.Add(r.From.Duration), to: epoch.Add(r.Until.Duration)}
		f.inst[i].stalls = append(f.inst[i].stalls, w)
		grow(w)
	}
	for _, r := range p.DegradeInstance {
		i, err := pick(r.Instance)
		if err != nil {
			return nil, err
		}
		w := window{from: epoch.Add(r.From.Duration), to: epoch.Add(r.Until.Duration)}
		f.inst[i].degrades = append(f.inst[i].degrades, struct {
			w window
			f float64
		}{w, r.Factor})
		grow(w)
	}
	for i := range f.inst {
		tl := &f.inst[i]
		sort.Slice(tl.crashes, func(a, b int) bool { return tl.crashes[a].from.Before(tl.crashes[b].from) })
		sort.Slice(tl.stalls, func(a, b int) bool { return tl.stalls[a].from.Before(tl.stalls[b].from) })
	}
	return f, nil
}

// downAt reports whether instance i is crashed at time t.
func (f *instanceFaults) downAt(i int, t vclock.Time) bool {
	for _, w := range f.inst[i].crashes {
		if w.contains(t) {
			return true
		}
	}
	return false
}

// stalledAt reports whether instance i is inside a stall window at t.
func (f *instanceFaults) stalledAt(i int, t vclock.Time) bool {
	for _, w := range f.inst[i].stalls {
		if w.contains(t) {
			return true
		}
	}
	return false
}

// degradeAt returns instance i's service-time multiplier at t (1 when
// healthy). Overlapping brownouts compound.
func (f *instanceFaults) degradeAt(i int, t vclock.Time) float64 {
	m := 1.0
	for _, d := range f.inst[i].degrades {
		if d.w.contains(t) {
			m *= d.f
		}
	}
	return m
}

// phase names for graceful-degradation accounting, indexed by phaseIdx.
var phaseNames = [3]string{"healthy", "faulted", "recovered"}

// phaseIdx classifies a virtual time against the compiled fault span:
// 0 before any fault onset, 1 inside the faulted span, 2 after the last
// fault ends. A fault-free compilation classifies everything healthy.
func (f *instanceFaults) phaseIdx(t vclock.Time) int {
	if f.span.from == vclock.Never || t.Before(f.span.from) {
		return 0
	}
	if t.Before(f.span.to) {
		return 1
	}
	return 2
}

// arm schedules the server-side halves of the compiled plan into each
// instance world: crash/restore flips and stall windows. Degradation is
// applied driver-side, at dispatch, by scaling the service draw.
func (f *instanceFaults) arm(insts []*instance) {
	for i, in := range insts {
		srv, w := in.srv, in.w
		for _, cw := range f.inst[i].crashes {
			w.At(cw.from, srv.Crash)
			if cw.to != vclock.Never {
				w.At(cw.to, srv.Restore)
			}
		}
		for _, sw := range f.inst[i].stalls {
			until := sw.to
			w.At(sw.from, func() { srv.StallUntil(until) })
		}
	}
}
