package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// The C-series runs the cluster layer: fleets of complete single-machine
// simulations behind routing and admission control, reporting aggregate
// SLOs. Where the W series scales one world up, the C series scales the
// number of worlds out — the ROADMAP's production-fleet framing. Like
// the W series it is opt-in only (threadstudy -series c), so the
// default output and its goldens never see it.

// clusterTable renders one summary per row: the shared C-series shape.
func clusterTable(title string, sums []*cluster.Summary, label func(*cluster.Summary) string) *stats.Table {
	t := stats.NewTable(title,
		"Config", "Offered", "Rejected", "Completed", "Tput req/s", "p50", "p95", "p99")
	for _, s := range sums {
		t.AddRowf(
			"%s", label(s),
			"%d", s.Offered,
			"%d", s.Rejected,
			"%d", s.Completed,
			"%.0f", s.Throughput,
			"%s", vclock.Duration(s.P50Us),
			"%s", vclock.Duration(s.P95Us),
			"%s", vclock.Duration(s.P99Us),
		)
	}
	return t
}

// mustCluster runs one spec; C-series specs are static, so an error is
// a programming bug, not an operator input.
func mustCluster(spec cluster.Spec) *cluster.Summary {
	s, err := cluster.Run(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// routedSpread returns max/min routed requests across instances, the
// imbalance figure for routing comparisons.
func routedSpread(s *cluster.Summary) (int64, int64) {
	min, max := s.PerInstance[0].Routed, s.PerInstance[0].Routed
	for _, in := range s.PerInstance {
		if in.Routed < min {
			min = in.Routed
		}
		if in.Routed > max {
			max = in.Routed
		}
	}
	return min, max
}

// ClusterScaling (C1) grows the fleet at fixed per-instance load — weak
// scaling over {1, 4, 16} instances of the w1-echo preset behind
// round-robin. Aggregate throughput should scale with the fleet while
// the percentiles hold, because each instance sees the same local rate.
func ClusterScaling(cfg Config) *Report {
	perInstReq := int64(2000)
	if cfg.Quick {
		perInstReq = 400
	}
	var sums []*cluster.Summary
	for _, n := range []int{1, 4, 16} {
		sums = append(sums, mustCluster(cluster.Spec{
			Preset:    "w1-echo",
			Instances: n,
			Sessions:  64,
			Router:    cluster.RouteRoundRobin,
			Seed:      cfg.seed(),
			Shards:    cfg.Shards,
			Requests:  int64(n) * perInstReq,
			Rate:      float64(n) * 4000,
			Service:   100 * vclock.Microsecond,
			Hooks:     cfg.Hooks,
		}))
	}
	return &Report{ID: "C1", Title: "Fleet weak scaling: instances x fixed per-instance load",
		Tables: []*stats.Table{clusterTable(
			"w1-echo fleet, round-robin, 4000 req/s and 64 sessions per instance",
			sums, func(s *cluster.Summary) string {
				return fmt.Sprintf("%d instance(s)", s.Instances)
			})},
		Notes: []string{
			"weak scaling: offered load grows with the fleet, so aggregate throughput should track instance count",
			"while p50/p99 stay near the single-instance baseline — each world is an independent 1993 machine;",
			"the cluster adds routing, not contention. Divergence here means the driver, not the fleet, is the bottleneck.",
		},
		Cluster: sums}
}

// ClusterRouting (C2) compares routing policies on one fleet under a
// hot-user skew and a heavy service tail — the regime where policy
// choice is visible: blind rotation spreads the hot users' bursts,
// affinity concentrates them, least-loaded steers around the instances
// digesting heavy requests.
func ClusterRouting(cfg Config) *Report {
	requests := int64(16_000)
	if cfg.Quick {
		requests = 4000
	}
	base := cluster.Spec{
		Preset:        "w1-echo",
		Instances:     8,
		Sessions:      32,
		Seed:          cfg.seed(),
		Shards:        cfg.Shards,
		Requests:      requests,
		Rate:          24_000,
		Service:       50 * vclock.Microsecond,
		Users:         256,
		HotUsers:      3,
		HotFraction:   0.4,
		HeavyFraction: 0.05,
		HeavyFactor:   40,
		Hooks:         cfg.Hooks,
	}
	var sums []*cluster.Summary
	for _, r := range cluster.RouterNames() {
		spec := base
		spec.Router = r
		sums = append(sums, mustCluster(spec))
	}
	t := clusterTable(
		"8 w1-echo instances, 40% of load from 3 hot users, 5% of requests 40x heavier",
		sums, func(s *cluster.Summary) string { return s.Router })
	imb := stats.NewTable("Routing imbalance (requests routed per instance)",
		"Policy", "Min", "Max")
	for _, s := range sums {
		min, max := routedSpread(s)
		imb.AddRowf("%s", s.Router, "%d", min, "%d", max)
	}
	return &Report{ID: "C2", Title: "Routing policies under skew and heavy tails",
		Tables: []*stats.Table{t, imb},
		Notes: []string{
			"round-robin ignores both identity and load; affinity pins users (hot users pile onto their home",
			"instances — compare the imbalance table); least-loaded reads the fleet's queue depths at each",
			"arrival and pays for that knowledge with a per-arrival advance barrier in the driver.",
		},
		Cluster: sums}
}

// ClusterAdmission (C3) offers the cedar-preset fleet ~2x its capacity
// and compares always-admit with a token bucket sized at ~75% of
// capacity. The bucket trades completed requests for tail latency:
// rejected work never queues, so p99 collapses from queueing-dominated
// to service-dominated.
func ClusterAdmission(cfg Config) *Report {
	requests := int64(24_000)
	if cfg.Quick {
		requests = 6000
	}
	base := cluster.Spec{
		Preset:    "cedar",
		Instances: 4,
		Sessions:  16,
		Router:    cluster.RouteRoundRobin,
		Seed:      cfg.seed(),
		Shards:    cfg.Shards,
		Requests:  requests,
		Rate:      16_000,
		Service:   500 * vclock.Microsecond,
		Hooks:     cfg.Hooks,
	}
	always := base
	always.Admission = cluster.AdmitAlways
	bucket := base
	bucket.Admission = cluster.AdmitTokenBucket
	bucket.TokenRate = 6000
	bucket.TokenBurst = 50
	sums := []*cluster.Summary{mustCluster(always), mustCluster(bucket)}
	return &Report{ID: "C3", Title: "Admission control under overload: always-admit vs token-bucket",
		Tables: []*stats.Table{clusterTable(
			"4 cedar instances (paper-era background running), offered ~2x capacity",
			sums, func(s *cluster.Summary) string { return s.Admission })},
		Notes: []string{
			"each instance runs Idle Cedar's desktop population under the routed sessions, so fleet requests",
			"compete with 1993-era background work; always-admit queues the overload and the percentiles price",
			"the backlog, while the token bucket rejects at the door and keeps the admitted tail near service time.",
		},
		Cluster: sums}
}

// CSeries returns the cluster experiments, in presentation order. Like
// WSeries they are not part of All(): opt-in only, goldens untouched.
func CSeries() []Experiment {
	return []Experiment{
		{"C1", "Fleet weak scaling: instances x fixed per-instance load", ClusterScaling},
		{"C2", "Routing policies under skew and heavy tails", ClusterRouting},
		{"C3", "Admission control under overload: always-admit vs token-bucket", ClusterAdmission},
	}
}
