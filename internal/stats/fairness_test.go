package stats

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/vclock"
)

func TestJainFairness(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 1},
		{"equal", []float64{3, 3, 3, 3}, 1},
		{"all-zero", []float64{0, 0, 0}, 1},
		{"dominated", []float64{1, 0, 0, 0}, 0.25}, // → 1/n
		{"two-to-one", []float64{2, 1}, 0.9},       // (3²)/(2·5)
		{"nan-dropped", []float64{math.NaN(), 5}, 1},
		{"inf-dropped", []float64{math.Inf(1), 5, 5}, 1},
		{"negative-dropped", []float64{-1, 4, 4}, 1},
		{"all-invalid", []float64{math.NaN(), math.Inf(-1), -3}, 0},
	}
	for _, tc := range cases {
		if got := JainFairness(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: JainFairness(%v) = %v, want %v", tc.name, tc.xs, got, tc.want)
		}
	}
}

func TestClassLatencyBasics(t *testing.T) {
	var c ClassLatency
	if got := c.Classes(); len(got) != 0 {
		t.Fatalf("zero value Classes = %v, want empty", got)
	}
	if c.Class("interactive") != nil {
		t.Fatalf("zero value Class != nil")
	}
	if c.Count() != 0 {
		t.Fatalf("zero value Count = %d", c.Count())
	}

	c.Add("interactive", 2*vclock.Millisecond)
	c.Add("interactive", 4*vclock.Millisecond)
	c.Add("batch", 100*vclock.Millisecond)
	if got, want := c.Classes(), []string{"batch", "interactive"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Classes = %v, want %v (sorted)", got, want)
	}
	if got := c.Class("interactive").Mean(); got != 3*vclock.Millisecond {
		t.Errorf("interactive mean = %v, want 3ms", got)
	}
	if c.Count() != 3 {
		t.Errorf("Count = %d, want 3", c.Count())
	}
	if got := c.MeanByClass(); !reflect.DeepEqual(got, []float64{float64(100 * vclock.Millisecond), float64(3 * vclock.Millisecond)}) {
		t.Errorf("MeanByClass = %v", got)
	}
	// Single class → trivially fair.
	var one ClassLatency
	one.Add("only", vclock.Millisecond)
	if got := JainFairness(one.MeanByClass()); got != 1 {
		t.Errorf("single-class fairness = %v, want 1", got)
	}
}

// TestClassLatencyMergeExact: merged percentiles equal percentiles over
// the concatenated samples, regardless of merge order, and merging leaves
// the source untouched.
func TestClassLatencyMergeExact(t *testing.T) {
	build := func(samples map[string][]vclock.Duration) *ClassLatency {
		c := &ClassLatency{}
		for class, ds := range samples {
			for _, d := range ds {
				c.Add(class, d)
			}
		}
		return c
	}
	a := build(map[string][]vclock.Duration{
		"interactive": {1, 9, 5},
		"batch":       {100},
	})
	b := build(map[string][]vclock.Duration{
		"interactive": {3, 7},
		"bulk":        {42},
	})
	want := build(map[string][]vclock.Duration{
		"interactive": {1, 9, 5, 3, 7},
		"batch":       {100},
		"bulk":        {42},
	})

	var ab ClassLatency
	ab.Merge(a)
	ab.Merge(b)
	var ba ClassLatency
	ba.Merge(b)
	ba.Merge(a)
	for _, merged := range []*ClassLatency{&ab, &ba} {
		if got, w := merged.Classes(), want.Classes(); !reflect.DeepEqual(got, w) {
			t.Fatalf("merged classes = %v, want %v", got, w)
		}
		for _, class := range want.Classes() {
			for _, p := range []float64{0, 0.5, 0.9, 1} {
				if got, w := merged.Class(class).Percentile(p), want.Class(class).Percentile(p); got != w {
					t.Errorf("merged %s p%v = %v, want %v", class, p, got, w)
				}
			}
		}
	}
	// Source untouched; self-merge and nil-merge are no-ops.
	if a.Class("interactive").Count() != 3 {
		t.Errorf("merge mutated the source: %d samples", a.Class("interactive").Count())
	}
	before := ab.Count()
	ab.Merge(&ab)
	ab.Merge(nil)
	if ab.Count() != before {
		t.Errorf("self/nil merge changed Count: %d → %d", before, ab.Count())
	}
	// Merging into a zero-value receiver from a class with zero samples.
	var zero ClassLatency
	zero.Merge(&ClassLatency{})
	if zero.Count() != 0 {
		t.Errorf("empty merge produced samples")
	}
}

// TestClassLatencyPercentileGuards: per-class recorders inherit
// Percentile's NaN/out-of-range clamping.
func TestClassLatencyPercentileGuards(t *testing.T) {
	var c ClassLatency
	c.Add("x", 1*vclock.Millisecond)
	c.Add("x", 2*vclock.Millisecond)
	r := c.Class("x")
	if got := r.Percentile(math.NaN()); got != 1*vclock.Millisecond {
		t.Errorf("NaN percentile = %v, want the minimum", got)
	}
	if got := r.Percentile(-3); got != 1*vclock.Millisecond {
		t.Errorf("negative percentile = %v, want the minimum", got)
	}
	if got := r.Percentile(7); got != 2*vclock.Millisecond {
		t.Errorf("out-of-range percentile = %v, want the maximum", got)
	}
}

// TestClassLatencyPut: an installed recorder is live — later samples
// show through the class — and replaces whatever the class held.
func TestClassLatencyPut(t *testing.T) {
	var c ClassLatency
	c.Add("a", vclock.Millisecond)
	var r LatencyRecorder
	c.Put("a", &r)
	if c.Class("a") != &r || c.Count() != 0 {
		t.Fatalf("Put did not replace class a: count %d", c.Count())
	}
	r.Add(2 * vclock.Millisecond)
	if got := c.Class("a").Max(); got != 2*vclock.Millisecond {
		t.Errorf("class a max = %v, want the live recorder's 2ms", got)
	}
	var fresh ClassLatency
	fresh.Put("b", &r)
	if got := fresh.Classes(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Errorf("Put on the zero value: classes %v", got)
	}
}
