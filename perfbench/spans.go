package main

import (
	"sort"
	"time"
)

// Phase classifies a span for the end-to-end metrics: setup spans sum to
// setup_s and timed spans are the denominator of events_per_s. Summary
// and teardown spans count only toward wall_s.
type Phase string

const (
	PhaseSetup    Phase = "setup"
	PhaseTimed    Phase = "timed"
	PhaseSummary  Phase = "summary"
	PhaseTeardown Phase = "teardown"
	PhaseRep      Phase = "rep"
)

// Span is one timed call into a layer's public API, made from the
// benchmark. Times are seconds since the process started. Parent is the
// index of the enclosing span in the same run's list, or -1.
type Span struct {
	Name   string  `json:"name"`
	Phase  Phase   `json:"phase"`
	Run    int     `json:"run"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

// Dur is the span's length in seconds.
func (s Span) Dur() float64 { return s.End - s.Start }

// recorder keeps the spans of one run (one repetition of a workload) in
// memory. It is used from a single goroutine.
type recorder struct {
	origin time.Time
	run    int
	spans  []Span
	stack  []int
}

func newRecorder(origin time.Time, run int) *recorder {
	return &recorder{origin: origin, run: run}
}

// span times f as a child of the innermost open span.
func (r *recorder) span(name string, phase Phase, f func()) {
	i := len(r.spans)
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, Span{Name: name, Phase: phase, Run: r.run, Parent: parent,
		Start: time.Since(r.origin).Seconds()})
	r.stack = append(r.stack, i)
	defer func() {
		r.stack = r.stack[:len(r.stack)-1]
		r.spans[i].End = time.Since(r.origin).Seconds()
	}()
	f()
}

// fillSelf sets each span's self time: its duration minus the part its
// direct children cover (children never overlap: one goroutine records).
func (r *recorder) fillSelf() {
	for i := range r.spans {
		r.spans[i].Self = r.spans[i].Dur()
	}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			r.spans[s.Parent].Self -= s.Dur()
		}
	}
}

// phaseTotal sums the spans of one phase that have no ancestor of the
// same phase, so nested spans are not counted twice.
func (r *recorder) phaseTotal(p Phase) float64 {
	total := 0.0
	for _, s := range r.spans {
		if s.Phase != p || r.hasAncestorIn(s, p) {
			continue
		}
		total += s.Dur()
	}
	return total
}

func (r *recorder) hasAncestorIn(s Span, p Phase) bool {
	for s.Parent >= 0 {
		s = r.spans[s.Parent]
		if s.Phase == p {
			return true
		}
	}
	return false
}

// total sums the durations of the spans with any of the given names.
func (r *recorder) total(names ...string) float64 {
	sum := 0.0
	for _, s := range r.spans {
		for _, n := range names {
			if s.Name == n {
				sum += s.Dur()
			}
		}
	}
	return sum
}

// spanStat is the per-name aggregate printed after a traced run.
type spanStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// summarizeSpans aggregates spans by name, largest self time first.
func summarizeSpans(spans []Span) []spanStat {
	idx := map[string]int{}
	var out []spanStat
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanStat{Name: s.Name})
		}
		out[i].Count++
		out[i].Total += s.Dur()
		out[i].Self += s.Self
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}
