package workload

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/vclock"
	"repro/internal/workload/spec"
)

// overloaded is a one-session cohort offered five times what it can
// serve, so its queue is never empty once arrivals begin.
func overloaded(kind string) *spec.Spec {
	return &spec.Spec{Schema: spec.Schema, Name: kind, Kind: kind,
		Cohorts: []spec.Cohort{{Name: "interactive", Sessions: 1, Requests: 200,
			Arrival: &spec.Arrival{Process: spec.ProcPoisson, Rate: 5000},
			Service: &spec.Service{Dist: spec.DistConst, MeanUS: 1000},
			SLOUS:   20_000}},
		HorizonUS: (2 * vclock.Second).Micros()}
}

// TestStampingIsSLOOnly: the slo kind stamps its sessions' class,
// deadline and service estimate; the cohorts kind, given the same cohort
// with the same slo_us, stamps nothing.
func TestStampingIsSLOOnly(t *testing.T) {
	for _, kind := range []string{spec.KindSLO, spec.KindCohorts} {
		t.Run(kind, func(t *testing.T) {
			w := sim.NewWorld(sim.Config{Seed: 1})
			defer w.Shutdown()
			run, err := StartSpec(w, overloaded(kind), SpecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// Mid-run: the first arrival is at ~100ms, and the backlog
			// grows by four requests per millisecond of service.
			w.Run(vclock.Time(0).Add(150 * vclock.Millisecond))
			th := run.Open.streams[0].pool.sessions[0].th
			stamped := th.SLOClass() != "" || th.Deadline() != 0 || th.ServiceEstimate() != 0
			if want := kind == spec.KindSLO; stamped != want {
				t.Fatalf("class %q deadline %v estimate %v: stamped=%v, want %v",
					th.SLOClass(), th.Deadline(), th.ServiceEstimate(), stamped, want)
			}
			if kind == spec.KindSLO && (th.SLOClass() != "interactive" || th.ServiceEstimate() < 2*vclock.Millisecond) {
				t.Errorf("slo stamps: class %q estimate %v, want interactive and a backlog", th.SLOClass(), th.ServiceEstimate())
			}
		})
	}
}

// TestFinishBooksEveryKindPerClass: the per-class books cover any
// arrival-driven kind — here the cohorts kind, whose on-time counts
// follow each cohort's slo_us (none declared: nothing is on time).
func TestFinishBooksEveryKindPerClass(t *testing.T) {
	sp := overloaded(spec.KindCohorts)
	relaxed := sp.Cohorts[0]
	relaxed.Name, relaxed.SLOUS, relaxed.Requests = "relaxed", 0, 20
	sp.Cohorts = append(sp.Cohorts, relaxed)
	w := sim.NewWorld(sim.Config{Seed: 1})
	defer w.Shutdown()
	run, err := StartSpec(w, sp, SpecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(vclock.Time(0).Add(run.Horizon))
	s := run.Open.Finish()
	if got := s.Classes(); !reflect.DeepEqual(got, []string{"interactive", "relaxed"}) {
		t.Fatalf("classes %v", got)
	}
	if s.Threads != 2 || s.Offered["interactive"] != 200 || s.Completed["relaxed"] != 20 {
		t.Errorf("books: threads %d offered %v completed %v", s.Threads, s.Offered, s.Completed)
	}
	if on := s.OnTime["interactive"]; on == 0 || on == 200 {
		t.Errorf("interactive on time %d of 200: an overloaded queue meets a 20ms SLO only early on", on)
	}
	if s.OnTime["relaxed"] != 0 || s.Attainment("relaxed") != 0 {
		t.Errorf("relaxed declares no SLO, yet %d on time", s.OnTime["relaxed"])
	}
	if s.Attainment("absent") != 1 {
		t.Error("a class that offered nothing must be trivially attained")
	}
	agg := run.Load()
	if agg.Offered != 220 || agg.Completed != 220 || agg.Latency.Count() != 220 || agg.Threads != 2 {
		t.Errorf("aggregate %s", agg)
	}
}

// TestServerKindServesInjected: the server kind is the passive pool
// alone — no arrivals of its own — serving what a driver injects.
func TestServerKindServesInjected(t *testing.T) {
	sp := &spec.Spec{Schema: spec.Schema, Name: "srv", Kind: spec.KindServer,
		Cohorts: []spec.Cohort{{Name: "s", Sessions: 3}}}
	w := sim.NewWorld(sim.Config{Seed: 1})
	defer w.Shutdown()
	run, err := StartSpec(w, sp, SpecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if run.Open != nil || run.SLO != nil || run.Server.Sessions() != 3 {
		t.Fatalf("server kind compiled an open loop (%v) or a %d-session pool", run.Open, run.Server.Sessions())
	}
	w.At(vclock.Time(0).Add(vclock.Millisecond), func() {
		for i := 0; i < 5; i++ {
			run.Server.Inject(i, 10*vclock.Microsecond)
		}
		run.Server.Close()
	})
	if out := w.Run(vclock.Time(0).Add(vclock.Second)); out != sim.OutcomeQuiescent {
		t.Fatalf("run ended %v, want quiescent", out)
	}
	if s := run.Load(); s.Offered != 5 || s.Completed != 5 || s.Threads != 3 {
		t.Errorf("server stats %s", s)
	}
}
