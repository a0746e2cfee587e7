package workload

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/vclock"
	"repro/internal/workload/spec"
)

// echoSpec is a quick-scale W1: 200 sessions, 2000 requests at 4000/s,
// 5us of service each.
func echoSpec() *spec.Spec {
	return &spec.Spec{Schema: spec.Schema, Name: "echo", Kind: spec.KindEcho,
		Cohorts: []spec.Cohort{{Name: "echo", Sessions: 200, Requests: 2000,
			Arrival: &spec.Arrival{Process: spec.ProcPoisson, Rate: 4000},
			Service: &spec.Service{Dist: spec.DistConst, MeanUS: 5}}}}
}

// runLoad compiles sp into a fresh world, drives it to until, and
// returns the run, the world's event count and its outcome.
func runLoad(t *testing.T, sp *spec.Spec, seed int64, until vclock.Duration) (*SpecRun, int64, sim.Outcome) {
	t.Helper()
	w := sim.NewWorld(sim.Config{Seed: seed, SystemDaemon: sp.SystemDaemon})
	t.Cleanup(w.Shutdown)
	run, err := StartSpec(w, sp, SpecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := w.Run(vclock.Time(0).Add(until))
	return run, w.EventsProcessed(), out
}

// runEcho drives one quick-scale W1 world to quiescence.
func runEcho(t *testing.T, seed int64) (*LoadStats, int64) {
	t.Helper()
	run, events, out := runLoad(t, echoSpec(), seed, 10*vclock.Second)
	if out != sim.OutcomeQuiescent {
		t.Fatalf("echo run ended %v, want quiescent", out)
	}
	return run.Load(), events
}

func TestEchoServesOfferedLoad(t *testing.T) {
	s, events := runEcho(t, 1)
	expectRun(t, "echo seed 1", events, s.String(), 6398,
		"offered=2000 completed=2000 threads=200 window=506.53ms rate=3948/s lat[n=2000 p50=55us p95=103us max=181us]")
	if s.Latency.Count() != 2000 {
		t.Fatalf("latency samples = %d, want 2000", s.Latency.Count())
	}
	// Every latency includes at least the service time.
	if min := s.Latency.Percentile(0); min < 5*vclock.Microsecond {
		t.Fatalf("min latency %v < service time", min)
	}
}

func TestEchoDeterministic(t *testing.T) {
	a, aEvents := runEcho(t, 7)
	b, bEvents := runEcho(t, 7)
	if a.String() != b.String() || aEvents != bEvents {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	expectRun(t, "echo seed 7", aEvents, a.String(), 6394,
		"offered=2000 completed=2000 threads=200 window=481.906ms rate=4150/s lat[n=2000 p50=55us p95=105us max=170us]")
	c, cEvents := runEcho(t, 8)
	expectRun(t, "echo seed 8", cEvents, c.String(), 6398,
		"offered=2000 completed=2000 threads=200 window=523.884ms rate=3818/s lat[n=2000 p50=55us p95=100us max=184us]")
}

func TestPipelineServesOfferedLoad(t *testing.T) {
	sp := &spec.Spec{Schema: spec.Schema, Name: "pipe", Kind: spec.KindPipeline,
		Pipeline: &spec.Pipeline{Pipelines: 8, Stages: 4, Buffer: 4, Requests: 1000, Rate: 1000, StageCostUS: 10}}
	run, events, out := runLoad(t, sp, 1, 20*vclock.Second)
	if out != sim.OutcomeQuiescent {
		t.Fatalf("pipeline run ended %v, want quiescent (shutdown must ripple down the stages)", out)
	}
	s := run.Load()
	expectRun(t, "pipeline seed 1", events, s.String(), 26966,
		"offered=1000 completed=1000 threads=32 window=1.056501s rate=947/s lat[n=1000 p50=258us p95=815us max=2.107ms]")
	// Four stages of compute bound the minimum end-to-end latency.
	if min := s.Latency.Percentile(0); min < 40*vclock.Microsecond {
		t.Fatalf("min latency %v < 4 stage costs", min)
	}
}

func TestMixedKeepsInteractiveFast(t *testing.T) {
	sp := &spec.Spec{Schema: spec.Schema, Name: "mixed", Kind: spec.KindMixed, SystemDaemon: true,
		Cohorts: []spec.Cohort{{Name: "interactive", Sessions: 32, Requests: 1500,
			Arrival: &spec.Arrival{Process: spec.ProcPoisson, Rate: 1500},
			Service: &spec.Service{Dist: spec.DistConst, MeanUS: 50}}},
		Batch: &spec.Batch{Workers: 8, ChunkUS: 200}, HorizonUS: (5 * vclock.Second).Micros()}
	run, events, _ := runLoad(t, sp, 1, sp.Horizon())
	s := run.Load()
	expectRun(t, "mixed seed 1", events, s.String(), 28650,
		"offered=1500 completed=1500 threads=40 window=1.011022s rate=1484/s lat[n=1500 p50=100us p95=1.284ms max=5.261ms]")
	if got := run.Open.BatchChunks(); got != 23878 {
		t.Fatalf("batch chunks = %d, want 23878", got)
	}
	// Strict priority: interactive p95 stays within a few batch chunks
	// even though the batch pool would soak every cycle.
	if p95 := s.Latency.Percentile(0.95); p95 > 5*vclock.Millisecond {
		t.Fatalf("interactive p95 = %v under batch load", p95)
	}
}

func TestEchoParamValidation(t *testing.T) {
	sp := echoSpec()
	sp.Cohorts[0].Sessions = 0
	w := sim.NewWorld(sim.Config{Seed: 1})
	defer w.Shutdown()
	if _, err := StartSpec(w, sp, SpecOptions{}); !errors.Is(err, spec.ErrInvalidSpec) {
		t.Fatalf("StartSpec with zero sessions: err %v, want ErrInvalidSpec", err)
	}
}
