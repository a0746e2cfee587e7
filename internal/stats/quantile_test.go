package stats

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vclock"
)

// quantileDiff feeds samples one at a time to a RunningQuantile and a
// LatencyRecorder and fails at the first Add after which Value and
// Percentile(p) disagree.
func quantileDiff(t *testing.T, p float64, samples []vclock.Duration) {
	t.Helper()
	q := NewRunningQuantile(p)
	var ref LatencyRecorder
	for i, d := range samples {
		q.Add(d)
		ref.Add(d)
		if q.Count() != ref.Count() {
			t.Fatalf("p=%v after %d adds: Count %d, want %d", p, i+1, q.Count(), ref.Count())
		}
		if got, want := q.Value(), ref.Percentile(p); got != want {
			t.Fatalf("p=%v after %d adds: Value %v, want Percentile %v", p, i+1, got, want)
		}
	}
}

// TestRunningQuantileMatchesPercentile checks the tracker against
// Percentile after every Add, over tie-heavy, wide and monotone streams
// (the monotone ones move samples across the split in each direction),
// for the quantiles in use and out-of-range p that must clamp alike.
func TestRunningQuantileMatchesPercentile(t *testing.T) {
	random := func(n int, spread int64) []vclock.Duration {
		rng := rand.New(rand.NewSource(spread))
		s := make([]vclock.Duration, n)
		for i := range s {
			s[i] = vclock.Duration(rng.Int63n(spread))
		}
		return s
	}
	up, down := make([]vclock.Duration, 500), make([]vclock.Duration, 500)
	for i := range up {
		up[i], down[i] = vclock.Duration(i), vclock.Duration(len(down)-i)
	}
	streams := []struct {
		name    string
		samples []vclock.Duration
	}{
		{"ties", random(2000, 7)},
		{"some-ties", random(2000, 300)},
		{"wide", random(2000, 1<<40)},
		{"ascending", up},
		{"descending", down},
	}
	for _, p := range []float64{0, 0.5, 0.9, 0.99, 1, -1, 2, math.NaN()} {
		for _, st := range streams {
			t.Run(st.name, func(t *testing.T) { quantileDiff(t, p, st.samples) })
		}
	}
}

func TestRunningQuantileEmpty(t *testing.T) {
	for _, q := range []*RunningQuantile{NewRunningQuantile(0.99), {}} {
		if q.Value() != 0 || q.Count() != 0 {
			t.Errorf("empty tracker: Value %v Count %d, want 0 0", q.Value(), q.Count())
		}
	}
}

// FuzzRunningQuantile decodes arbitrary bytes into a quantile and a
// sample stream and checks the two-heap tracker against
// LatencyRecorder.Percentile after every Add. `make check` runs this
// target in the fuzz-short pass.
func FuzzRunningQuantile(f *testing.F) {
	f.Add(byte(99), []byte{1, 2, 3, 3, 3, 0, 9, 9})
	f.Add(byte(0), []byte{5, 5, 5, 5})
	f.Add(byte(100), []byte{9, 1, 8, 2, 7, 3})
	f.Add(byte(50), []byte{0, 0, 0, 1, 1, 1, 2, 2, 2, 255})
	f.Fuzz(func(t *testing.T, pct byte, data []byte) {
		if len(data) > 1<<10 {
			data = data[:1<<10]
		}
		// pct past 100 exercises the clamp; each byte is one sample, so
		// long streams repeat values.
		p := float64(pct) / 100
		samples := make([]vclock.Duration, len(data))
		for i, b := range data {
			samples[i] = vclock.Duration(b)
		}
		quantileDiff(t, p, samples)
	})
}
