package stats

import (
	"math"

	"repro/internal/vclock"
)

// RunningQuantile tracks one nearest-rank quantile of a growing sample
// stream in O(log n) per Add and O(1) per Value — for a reader that asks
// for the quantile after nearly every sample, where LatencyRecorder
// would re-sort everything it holds on each ask. Value always equals
// LatencyRecorder.Percentile(p) over the same samples.
//
// Two heaps split the samples at the quantile: a max-heap holds the
// int(p*(n-1))+1 smallest (the nearest-rank index plus one), a min-heap
// the rest, so the answer is the max-heap's top. The zero value tracks
// p = 0, the minimum.
type RunningQuantile struct {
	p  float64
	lo durHeap // max-heap: the smallest rank(n) samples
	hi durHeap // min-heap: every larger sample
}

// NewRunningQuantile returns an empty tracker of the p-quantile. p is
// clamped exactly as LatencyRecorder.Percentile clamps it.
func NewRunningQuantile(p float64) *RunningQuantile {
	if p < 0 || math.IsNaN(p) {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return &RunningQuantile{p: p, lo: durHeap{max: true}}
}

// Count returns the number of samples.
func (q *RunningQuantile) Count() int { return len(q.lo.s) + len(q.hi.s) }

// Add records one sample. The target split grows by at most one sample
// per Add, so at most one sample crosses between the heaps.
func (q *RunningQuantile) Add(d vclock.Duration) {
	if len(q.lo.s) > 0 && d < q.lo.s[0] {
		q.lo.push(d)
	} else {
		q.hi.push(d)
	}
	n := q.Count()
	k := int(q.p*float64(n-1)) + 1 // the same index expression as Percentile
	for len(q.lo.s) < k {
		q.lo.push(q.hi.pop())
	}
	for len(q.lo.s) > k {
		q.hi.push(q.lo.pop())
	}
}

// Value returns the tracked quantile, or 0 if empty.
func (q *RunningQuantile) Value() vclock.Duration {
	if len(q.lo.s) == 0 {
		return 0
	}
	return q.lo.s[0]
}

// durHeap is a binary heap of durations, hand-rolled so samples stay
// unboxed: a min-heap, or a max-heap when max is set.
type durHeap struct {
	s   []vclock.Duration
	max bool
}

// above reports whether a belongs nearer the root than b.
func (h *durHeap) above(a, b vclock.Duration) bool {
	if h.max {
		return a > b
	}
	return a < b
}

func (h *durHeap) push(d vclock.Duration) {
	h.s = append(h.s, d)
	i := len(h.s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.above(h.s[i], h.s[parent]) {
			break
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

// pop removes and returns the root; the heap must be non-empty.
func (h *durHeap) pop() vclock.Duration {
	top := h.s[0]
	n := len(h.s) - 1
	h.s[0] = h.s[n]
	h.s = h.s[:n]
	for i := 0; ; {
		best, l := i, 2*i+1
		if l < n && h.above(h.s[l], h.s[best]) {
			best = l
		}
		if r := l + 1; r < n && h.above(h.s[r], h.s[best]) {
			best = r
		}
		if best == i {
			return top
		}
		h.s[i], h.s[best] = h.s[best], h.s[i]
		i = best
	}
}
