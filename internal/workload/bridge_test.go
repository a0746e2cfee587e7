package workload

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/vclock"
	"repro/internal/workload/spec"
)

// These tests pin the open-loop engine's traffic: a workload compiled
// from its spec document through StartSpec must reproduce, event for
// event, the run the hand-parameterised generators it replaced produced.
// The pinned event counts and stats strings were recorded from those
// generators. EventsProcessed counts every scheduling decision the world
// made, so equality there plus equal load stats is byte-identity for
// everything the experiments report.

// quickShipped returns a shipped W-series spec scaled to test size.
func quickShipped(t *testing.T, name string, scale func(*spec.Spec)) *spec.Spec {
	t.Helper()
	sp, err := spec.Shipped(name)
	if err != nil {
		t.Fatal(err)
	}
	scale(sp)
	if err := sp.Check(); err != nil {
		t.Fatalf("scaled %s spec invalid: %v", name, err)
	}
	return sp
}

// runSpec compiles and drives one spec, returning the world's event
// count and the run's aggregate stats rendering.
func runSpec(t *testing.T, sp *spec.Spec, seed int64, opts SpecOptions) (int64, string) {
	t.Helper()
	w := sim.NewWorld(sim.Config{Seed: seed, SystemDaemon: sp.SystemDaemon})
	defer w.Shutdown()
	run, err := StartSpec(w, sp, opts)
	if err != nil {
		t.Fatalf("StartSpec(%s): %v", sp.Name, err)
	}
	w.Run(vclock.Time(0).Add(run.Horizon))
	if run.SLO != nil {
		s := run.SLO.Finish()
		var b strings.Builder
		fmt.Fprintf(&b, "threads=%d", s.Threads)
		for _, class := range s.Classes() {
			fmt.Fprintf(&b, " %s[off=%d done=%d ontime=%d lat=%s]",
				class, s.Offered[class], s.Completed[class], s.OnTime[class],
				s.Latency.Class(class).String())
		}
		return w.EventsProcessed(), b.String()
	}
	return w.EventsProcessed(), run.Load().String()
}

// expectRun fails the test unless a run reproduced its pinned traffic.
func expectRun(t *testing.T, what string, events int64, stats string, wantEvents int64, wantStats string) {
	t.Helper()
	if events != wantEvents || stats != wantStats {
		t.Errorf("%s moved:\n got:  %d events, %s\n want: %d events, %s",
			what, events, stats, wantEvents, wantStats)
	}
}

func TestSpecBridgeEcho(t *testing.T) {
	sp := quickShipped(t, "w1", func(s *spec.Spec) {
		s.Cohorts[0].Sessions = 200
		s.Cohorts[0].Requests = 2000
	})
	events, stats := runSpec(t, sp, 3, SpecOptions{})
	expectRun(t, "W1", events, stats, 6394,
		"offered=2000 completed=2000 threads=200 window=392.701ms rate=5093/s lat[n=2000 p50=55us p95=109us max=202us]")
}

func TestSpecBridgePipeline(t *testing.T) {
	sp := quickShipped(t, "w2", func(s *spec.Spec) {
		s.Pipeline.Pipelines = 8
		s.Pipeline.Requests = 1000
	})
	events, stats := runSpec(t, sp, 3, SpecOptions{})
	expectRun(t, "W2", events, stats, 26902,
		"offered=1000 completed=1000 threads=32 window=970.974ms rate=1030/s lat[n=1000 p50=258us p95=950us max=2.209ms]")
}

func TestSpecBridgeMixed(t *testing.T) {
	sp := quickShipped(t, "w3", func(s *spec.Spec) {
		s.Cohorts[0].Sessions = 64
		s.Cohorts[0].Requests = 4000
		s.Batch.Workers = 8
		s.HorizonUS = (5 * vclock.Second).Micros()
	})
	w := sim.NewWorld(sim.Config{Seed: 3, SystemDaemon: sp.SystemDaemon})
	defer w.Shutdown()
	run, err := StartSpec(w, sp, SpecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(vclock.Time(0).Add(run.Horizon))
	expectRun(t, "W3", w.EventsProcessed(), run.Load().String(), 34495,
		"offered=4000 completed=4000 threads=72 window=1.989585s rate=2010/s lat[n=4000 p50=100us p95=764us max=5.388ms]")
	if got := run.Open.BatchChunks(); got != 22167 {
		t.Errorf("W3 batch chunks %d, want 22167", got)
	}
}

// livePins are the seed-3 runs of specsUnderTest, by spec name.
var livePins = map[string]struct {
	events int64
	stats  string
}{
	"w1-echo":     {3194, "offered=1000 completed=1000 threads=100 window=201.017ms rate=4975/s lat[n=1000 p50=55us p95=109us max=202us]"},
	"w2-pipeline": {10683, "offered=400 completed=400 threads=16 window=401.379ms rate=997/s lat[n=400 p50=258us p95=840us max=1.356ms]"},
	"w3-mixed":    {13571, "offered=1500 completed=1500 threads=36 window=745.167ms rate=2013/s lat[n=1500 p50=100us p95=741us max=5.35ms]"},
	"slo-mix": {5114, "threads=14" +
		" batch[off=2114 done=2112 ontime=2095 lat=n=2112 p50=1ms p95=10.757ms max=59.433ms]" +
		" fast[off=800 done=800 ontime=800 lat=n=800 p50=550us p95=1.026ms max=2.099ms]" +
		" slow[off=200 done=200 ontime=200 lat=n=200 p50=2.65ms p95=6.417ms max=9.433ms]"},
	"general": {6131, "offered=2150 completed=2150 threads=20 window=1.500781s rate=1433/s lat[n=2150 p50=573us p95=6.154ms max=23.325ms]"},
}

// specsUnderTest returns one spec per replayable kind, test-sized.
func specsUnderTest(t *testing.T) []*spec.Spec {
	t.Helper()
	return []*spec.Spec{
		quickShipped(t, "w1", func(s *spec.Spec) {
			s.Cohorts[0].Sessions = 100
			s.Cohorts[0].Requests = 1000
		}),
		quickShipped(t, "w2", func(s *spec.Spec) {
			s.Pipeline.Pipelines = 4
			s.Pipeline.Requests = 400
		}),
		quickShipped(t, "w3", func(s *spec.Spec) {
			s.Cohorts[0].Sessions = 32
			s.Cohorts[0].Requests = 1500
			s.Batch.Workers = 4
			s.HorizonUS = (2 * vclock.Second).Micros()
		}),
		{Schema: spec.Schema, Name: "slo-mix", Kind: spec.KindSLO,
			Cohorts: []spec.Cohort{
				{Name: "fast", Sessions: 8, Requests: 800,
					Arrival:  &spec.Arrival{Process: spec.ProcPoisson, Rate: 400},
					Service:  &spec.Service{Dist: spec.DistConst, MeanUS: 500},
					Priority: "high", SLOUS: 20_000},
				{Name: "slow", Sessions: 4, Requests: 200,
					Arrival: &spec.Arrival{Process: spec.ProcPoisson, Rate: 100},
					Service: &spec.Service{Dist: spec.DistConst, MeanUS: 2000},
					SLOUS:   100_000},
			},
			Batch:     &spec.Batch{Workers: 2, ChunkUS: 1000, SLOUS: 50_000},
			HorizonUS: (3 * vclock.Second).Micros()},
		{Schema: spec.Schema, Name: "general", Kind: spec.KindCohorts,
			Cohorts: []spec.Cohort{
				{Name: "bursty", Sessions: 16, Requests: 2000,
					Arrival: &spec.Arrival{Process: spec.ProcGamma, Rate: 1500, Shape: 0.5},
					Service: &spec.Service{Dist: spec.DistExp, MeanUS: 120},
					Modulation: []spec.Window{
						{FromUS: 0, ToUS: 400_000, Factor: 0.5},
						{FromUS: 400_000, ToUS: 900_000, Factor: 2},
					}},
				{Name: "heavy", Sessions: 4, Requests: 150,
					Arrival: &spec.Arrival{Process: spec.ProcWeibull, Rate: 100, Shape: 1.5},
					Service: &spec.Service{Dist: spec.DistPareto, MeanUS: 3000, Alpha: 2.5},
					SLOUS:   80_000},
			},
			HorizonUS: (4 * vclock.Second).Micros()},
	}
}

// TestRecordReplayRoundTrip is the trace contract, per kind: a run
// reproduces its pinned traffic, and the recorded run replayed — even in a world seeded differently — reproduces the
// same event sequence and stats, and re-recording the replay reproduces
// the trace byte-for-byte.
func TestRecordReplayRoundTrip(t *testing.T) {
	for _, sp := range specsUnderTest(t) {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			rec := spec.NewTrace(sp.Name, 3)
			liveEvents, liveStats := runSpec(t, sp, 3, SpecOptions{Record: rec})
			if len(rec.Entries) == 0 {
				t.Fatal("recorded no entries")
			}
			pin := livePins[sp.Name]
			expectRun(t, sp.Name, liveEvents, liveStats, pin.events, pin.stats)

			// Same seed, replayed: identical world, identical trace.
			rerec := spec.NewTrace(sp.Name, 3)
			replayEvents, replayStats := runSpec(t, sp, 3, SpecOptions{Replay: rec, Record: rerec})
			if replayEvents != liveEvents || replayStats != liveStats {
				t.Errorf("replay diverged from the recorded run:\n live:   %d events, %s\n replay: %d events, %s",
					liveEvents, liveStats, replayEvents, replayStats)
			}
			if !bytes.Equal(rec.Bytes(), rerec.Bytes()) {
				t.Errorf("re-recorded trace differs from the original")
			}

			// A different world seed must not matter: the trace, not the
			// RNG, owns arrivals, sessions and demands.
			rerec2 := spec.NewTrace(sp.Name, 3)
			if _, stats := runSpec(t, sp, 99, SpecOptions{Replay: rec, Record: rerec2}); stats != liveStats {
				t.Errorf("replay under seed 99 moved the stats:\n live:   %s\n replay: %s", liveStats, stats)
			}
			if !bytes.Equal(rec.Bytes(), rerec2.Bytes()) {
				t.Errorf("re-recorded trace under seed 99 differs from the original")
			}
		})
	}
}

// TestStartSpecRejects covers the construction sentinel: every invalid
// spec or trace fails with spec.ErrInvalidSpec and a usable message.
func TestStartSpecRejects(t *testing.T) {
	valid := func() *spec.Spec {
		return &spec.Spec{Schema: spec.Schema, Name: "v", Kind: spec.KindCohorts,
			Cohorts: []spec.Cohort{{Name: "a", Sessions: 2, Requests: 10,
				Arrival: &spec.Arrival{Process: spec.ProcPoisson, Rate: 100},
				Service: &spec.Service{Dist: spec.DistConst, MeanUS: 5}}},
			HorizonUS: 1_000_000}
	}
	tamper := func(mutate func(*spec.Spec)) *spec.Spec {
		s := valid()
		mutate(s)
		return s
	}
	withTrace := func(entries ...spec.Entry) SpecOptions {
		tr := spec.NewTrace("v", 1)
		tr.Entries = entries
		return SpecOptions{Replay: tr}
	}
	cases := []struct {
		name string
		sp   *spec.Spec
		opts SpecOptions
	}{
		{"invalid spec", tamper(func(s *spec.Spec) { s.Cohorts[0].Arrival.Rate = -1 }), SpecOptions{}},
		{"duplicate cohorts", tamper(func(s *spec.Spec) {
			s.Cohorts = append(s.Cohorts, s.Cohorts[0])
		}), SpecOptions{}},
		{"unknown background", tamper(func(s *spec.Spec) { s.Background = "vax" }), SpecOptions{}},
		{"trace names unknown cohort", valid(),
			withTrace(spec.Entry{AtUS: 1, Cohort: "b", Session: 0, ServiceUS: 5})},
		{"trace session out of pool", valid(),
			withTrace(spec.Entry{AtUS: 1, Cohort: "a", Session: 2, ServiceUS: 5})},
		{"trace arrivals not increasing", valid(),
			withTrace(
				spec.Entry{AtUS: 5, Cohort: "a", Session: 0, ServiceUS: 5},
				spec.Entry{AtUS: 5, Cohort: "a", Session: 1, ServiceUS: 5})},
		{"trace missing a cohort", valid(), withTrace()},
		{"trace demand not positive", valid(),
			withTrace(spec.Entry{AtUS: 1, Cohort: "a", Session: 0, ServiceUS: 0})},
		{"server kind replay", &spec.Spec{Schema: spec.Schema, Name: "srv", Kind: spec.KindServer,
			Cohorts: []spec.Cohort{{Name: "s", Sessions: 2}}},
			withTrace(spec.Entry{AtUS: 1, Cohort: "s", Session: 0, ServiceUS: 5})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := sim.NewWorld(sim.Config{Seed: 1})
			defer w.Shutdown()
			_, err := StartSpec(w, tc.sp, tc.opts)
			if err == nil {
				t.Fatalf("StartSpec accepted")
			}
			if !errors.Is(err, spec.ErrInvalidSpec) {
				t.Errorf("error does not wrap ErrInvalidSpec: %v", err)
			}
		})
	}
}

// TestReplayTakesRecordedDemand: replay serves each request at the
// trace's recorded demand, not the spec's constant — editing the trace's
// svc moves the replayed latencies while the arrivals stay put.
func TestReplayTakesRecordedDemand(t *testing.T) {
	sp := quickShipped(t, "w1", func(s *spec.Spec) {
		s.Cohorts[0].Sessions = 50
		s.Cohorts[0].Requests = 500
	})
	rec := spec.NewTrace(sp.Name, 3)
	runSpec(t, sp, 3, SpecOptions{Record: rec})
	edited := spec.NewTrace(sp.Name, 3)
	for _, e := range rec.Entries {
		e.ServiceUS *= 40
		edited.Entries = append(edited.Entries, e)
	}

	w := sim.NewWorld(sim.Config{Seed: 3})
	defer w.Shutdown()
	rerec := spec.NewTrace(sp.Name, 3)
	run, err := StartSpec(w, sp, SpecOptions{Replay: edited, Record: rerec})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(vclock.Time(0).Add(run.Horizon))
	s := run.Load()
	if s.Completed != 500 {
		t.Fatalf("replay completed %d of 500", s.Completed)
	}
	if min := s.Latency.Percentile(0); min < 200*vclock.Microsecond {
		t.Errorf("replayed min latency %v below the edited 200us demand", min)
	}
	if !bytes.Equal(edited.Bytes(), rerec.Bytes()) {
		t.Errorf("re-recorded trace lost the edited demands")
	}
}
