package experiments

import (
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/internal/workload"
	"repro/internal/workload/spec"
)

// The S-series is the scheduling-policy lab: each experiment runs the
// same SLO-cohort workload once per policy in a fixed comparison ladder
// and reports per-class latency percentiles, SLO attainment, a Jain
// fairness index over the attainments, and the promptness score — the
// minimum attainment across classes, the number a policy can only raise
// by serving every class adequately rather than sacrificing one. Like
// the W series, the S series runs only behind explicit request
// (threadstudy -series s), keeping the default
// experiment list and its golden stdout untouched.

// ClassSummary is one class's results under one policy. All latencies
// are virtual microseconds.
type ClassSummary struct {
	Class      string  `json:"class"`
	Offered    int64   `json:"offered"`
	Completed  int64   `json:"completed"`
	P50US      int64   `json:"p50_us"`
	P99US      int64   `json:"p99_us"`
	Attainment float64 `json:"attainment"`
}

// SchedSummary is the machine-readable face of one policy's run within
// an S-series experiment, attached to the experiment's Metrics under
// "sched" in -json/-bench output.
type SchedSummary struct {
	// Policy is the full spec the run executed under (sched.Parse
	// syntax), parameters included.
	Policy string `json:"policy"`
	// Classes holds the per-class breakdown, sorted by class name.
	Classes []ClassSummary `json:"classes"`
	// Fairness is Jain's index over the per-class attainments.
	Fairness float64 `json:"fairness"`
	// Score is the minimum attainment across classes — the mixed-load
	// promptness metric the S4 acceptance criterion is stated in.
	Score float64 `json:"score"`
}

// sloCohort builds one constant-service Poisson cohort of the SLO spec.
func sloCohort(name string, sessions int, requests int64, rate float64, service, slo vclock.Duration, prio string) spec.Cohort {
	return spec.Cohort{
		Name: name, Sessions: sessions, Requests: requests,
		Arrival:  &spec.Arrival{Process: spec.ProcPoisson, Rate: rate},
		Service:  &spec.Service{Dist: spec.DistConst, MeanUS: service.Micros()},
		Priority: prio, SLOUS: slo.Micros(),
	}
}

// sloSpec assembles an S-series workload description. The experiments
// declare their operating points as spec documents and compile them
// through StartSpec like any user-supplied spec.
func sloSpec(name string, horizon vclock.Duration, batch *spec.Batch, cohorts ...spec.Cohort) *spec.Spec {
	return &spec.Spec{Schema: spec.Schema, Name: name, Kind: spec.KindSLO,
		Cohorts: cohorts, Batch: batch, HorizonUS: horizon.Micros()}
}

// runPolicy compiles the SLO spec once under the given policy and
// summarizes the run. Each call builds a fresh world and a fresh policy
// instance: stateful policies key their books by thread pointer and
// serve exactly one world.
func runPolicy(cfg Config, policy string, sp *spec.Spec) *SchedSummary {
	h := cfg.Hooks
	h.Policy = sched.MustParse(policy)
	w := sim.NewWorld(sim.Config{Seed: cfg.seed(), Hooks: h})
	defer w.Shutdown()
	run, err := workload.StartSpec(w, sp, workload.SpecOptions{})
	if err != nil {
		panic(err) // the S-series specs are literals; failing to compile is a bug
	}
	w.Run(vclock.Time(0).Add(run.Horizon))
	s := run.SLO.Finish()

	sum := &SchedSummary{Policy: policy, Score: 1}
	var atts []float64
	for _, class := range s.Classes() {
		cs := ClassSummary{
			Class:      class,
			Offered:    s.Offered[class],
			Completed:  s.Completed[class],
			Attainment: s.Attainment(class),
		}
		if r := s.Latency.Class(class); r != nil {
			cs.P50US = int64(r.Percentile(0.5))
			cs.P99US = int64(r.Percentile(0.99))
		}
		sum.Classes = append(sum.Classes, cs)
		atts = append(atts, cs.Attainment)
		if cs.Attainment < sum.Score {
			sum.Score = cs.Attainment
		}
	}
	sum.Fairness = stats.JainFairness(atts)
	return sum
}

// sweepPolicies runs the ladder and renders the two shared S-series
// tables: the per-class breakdown and the policy summary.
func sweepPolicies(cfg Config, ladder []string, sp *spec.Spec, title string) ([]*SchedSummary, []*stats.Table) {
	var sums []*SchedSummary
	breakdown := stats.NewTable(title,
		"Policy", "Class", "Offered", "Done", "p50", "p99", "On-time")
	for _, policy := range ladder {
		sum := runPolicy(cfg, policy, sp)
		sums = append(sums, sum)
		for _, cs := range sum.Classes {
			breakdown.AddRowf("%s", sum.Policy, "%s", cs.Class,
				"%d", cs.Offered, "%d", cs.Completed,
				"%s", vclock.Duration(cs.P50US), "%s", vclock.Duration(cs.P99US),
				"%.3f", cs.Attainment)
		}
	}
	summary := stats.NewTable("Policy summary: min attainment across classes (score) and Jain fairness over attainments",
		"Policy", "Score", "Fairness")
	for _, sum := range sums {
		summary.AddRowf("%s", sum.Policy, "%.3f", sum.Score, "%.3f", sum.Fairness)
	}
	return sums, []*stats.Table{breakdown, summary}
}

// sloScale multiplies quick-mode request counts and horizons up to the
// full-length operating point.
func sloScale(cfg Config, n int64) int64 {
	if cfg.Quick {
		return n
	}
	return 3 * n
}

func sloHorizon(cfg Config, d vclock.Duration) vclock.Duration {
	if cfg.Quick {
		return d
	}
	return 3 * d
}

// SchedPolicyLab (S1) runs every registered policy over a two-cohort
// interactive/bulk mix with a background batch pool — the broad survey
// the comparison experiments S2-S4 then sharpen.
func SchedPolicyLab(cfg Config) *Report {
	sp := sloSpec("s1-policy-lab", sloHorizon(cfg, 8*vclock.Second),
		&spec.Batch{Workers: 4, ChunkUS: (5 * vclock.Millisecond).Micros(),
			SLOUS: (50 * vclock.Millisecond).Micros(), Priority: "background"},
		sloCohort("interactive", 16, sloScale(cfg, 2800), 450,
			vclock.Millisecond, 25*vclock.Millisecond, "high"),
		sloCohort("bulk", 8, sloScale(cfg, 600), 100,
			2*vclock.Millisecond, 100*vclock.Millisecond, "normal"))
	ladder := []string{"pcr-rr", "rr", "edf", "sjf", "mlfq", "hybrid"}
	sums, tables := sweepPolicies(cfg, ladder, sp,
		"Policy lab: interactive (1ms/25ms SLO, ~45% load) + bulk (2ms/100ms SLO, ~20% load) over a 4-thread batch pool")
	return &Report{ID: "S1", Title: "Scheduling-policy lab over an interactive/bulk/batch mix",
		Tables: tables,
		Notes: []string{
			"every policy sees the same offered load and seed; only the dispatch discipline differs;",
			"pcr-rr is the paper's fixed priority structure — the ladder measures what each departure",
			"from it buys (fairness, deadlines, short jobs) and what it costs in interactive promptness.",
		},
		Sched: sums}
}

// SchedDeadlines (S2) compares deadline-blind and deadline-aware
// disciplines on tight- vs loose-deadline cohorts at equal priority.
func SchedDeadlines(cfg Config) *Report {
	sp := sloSpec("s2-deadlines", sloHorizon(cfg, 10*vclock.Second), nil,
		sloCohort("tight", 8, sloScale(cfg, 1200), 150,
			2*vclock.Millisecond, 15*vclock.Millisecond, "normal"),
		sloCohort("loose", 8, sloScale(cfg, 2400), 300,
			2*vclock.Millisecond, 250*vclock.Millisecond, "normal"))
	ladder := []string{"pcr-rr", "rr", "edf"}
	sums, tables := sweepPolicies(cfg, ladder, sp,
		"Deadline cohorts at one priority: tight (15ms SLO) vs loose (250ms SLO), ~90% utilization")
	return &Report{ID: "S2", Title: "EDF vs deadline-blind round-robin on mixed deadlines",
		Tables: tables,
		Notes: []string{
			"both cohorts share one priority, so pcr-rr degenerates to FIFO service order and the tight",
			"cohort queues behind loose work it cannot overtake; edf reads the deadline each session",
			"stamps from its oldest pending request and runs the urgent session first.",
		},
		Sched: sums}
}

// SchedServiceAware (S3) compares service-blind and service-aware
// disciplines on a bimodal short/long service mix at equal priority.
func SchedServiceAware(cfg Config) *Report {
	sp := sloSpec("s3-service-aware", sloHorizon(cfg, 10*vclock.Second), nil,
		sloCohort("short", 12, sloScale(cfg, 4800), 600,
			500*vclock.Microsecond, 10*vclock.Millisecond, "normal"),
		sloCohort("long", 6, sloScale(cfg, 480), 60,
			10*vclock.Millisecond, 250*vclock.Millisecond, "normal"))
	ladder := []string{"pcr-rr", "sjf", "mlfq"}
	sums, tables := sweepPolicies(cfg, ladder, sp,
		"Bimodal service at one priority: short (0.5ms/10ms SLO) vs long (10ms/250ms SLO)")
	return &Report{ID: "S3", Title: "SJF and MLFQ vs FIFO on bimodal service times",
		Tables: tables,
		Notes: []string{
			"sjf reads the declared pending-service estimate and overtakes long work explicitly; mlfq",
			"infers the same split by demoting sessions that burn whole quanta — feedback approximating",
			"SJF without metadata, at the price of its aging machinery.",
		},
		Sched: sums}
}

// SchedPromptness (S4) is the promptness-vs-throughput demonstration:
// strict priority starves the batch pool's chunk latency, single-level
// round-robin destroys interactive latency, and the hybrid bounds both —
// beating both pure disciplines on the min-attainment score.
func SchedPromptness(cfg Config) *Report {
	sp := sloSpec("s4-promptness", sloHorizon(cfg, 8*vclock.Second),
		&spec.Batch{Workers: 4, ChunkUS: (2 * vclock.Millisecond).Micros(),
			SLOUS: (15 * vclock.Millisecond).Micros(), Priority: "background"},
		sloCohort("interactive", 24, sloScale(cfg, 4000), 600,
			vclock.Millisecond, 30*vclock.Millisecond, "high"))
	ladder := []string{"pcr-rr", "rr", "hybrid:slice=10ms,share=0.3"}
	sums, tables := sweepPolicies(cfg, ladder, sp,
		"Promptness vs throughput: interactive (1ms/30ms SLO, ~60% load) over a 4-thread batch pool (2ms chunks, 15ms SLO)")
	return &Report{ID: "S4", Title: "Hybrid promptness: bounding both interactive and batch latency",
		Tables: tables,
		Notes: []string{
			"the score is min attainment across classes, so a policy wins only by serving both: strict",
			"priority sacrifices batch chunk latency, pure round-robin sacrifices keystroke echo, and the",
			"hybrid's periodic batch boost (one 10ms slice per cycle, 30% share) bounds each class's wait —",
			"the Competitive Parallelism split grafted onto the paper's priority structure.",
		},
		Sched: sums}
}

// SSeries returns the scheduling-policy experiments, in presentation
// order. Like the W series, they are not part of All(): the S series
// runs only on explicit request (threadstudy -series s), and it is
// deliberately kept out of the bench sweep so the BENCH baseline's
// per-experiment event counts stay comparable across PRs.
func SSeries() []Experiment {
	return []Experiment{
		{"S1", "Scheduling-policy lab over an interactive/bulk/batch mix", SchedPolicyLab},
		{"S2", "EDF vs deadline-blind round-robin on mixed deadlines", SchedDeadlines},
		{"S3", "SJF and MLFQ vs FIFO on bimodal service times", SchedServiceAware},
		{"S4", "Hybrid promptness: bounding both interactive and batch latency", SchedPromptness},
	}
}
